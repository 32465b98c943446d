package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sort"
	"testing"
	"time"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/dbg"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// wireExp measures the v3 binary codec at three levels: raw
// encode/decode cost of representative frames, end-to-end RPC latency
// and batch throughput over loopback TCP, and streaming-observability
// aggregation rate — including whether an active stream perturbs
// paused-debug latency.
func wireExp(int) error {
	header("Wire: v3 binary zero-copy framing")
	if err := wireCodecTable(); err != nil {
		return err
	}
	if err := wireRPCTable(); err != nil {
		return err
	}
	return wireStreamTable()
}

// wireCodecTable benchmarks the codecs in isolation: a single-peek
// request (the interactive hot path) and a 64-item batched peek.
func wireCodecTable() error {
	peek := wire.Req(&wire.Request{ID: 7, Op: wire.OpPeek, Session: 3,
		Name: "dut.core.alu.acc"})
	items := make([]wire.BatchItem, 64)
	for i := range items {
		items[i] = wire.BatchItem{Name: fmt.Sprintf("dut.cluster.core%d.pc", i)}
	}
	batch := wire.Req(&wire.Request{ID: 8, Op: wire.OpPeekBatch, Session: 3,
		Items: items})

	fmt.Println()
	fmt.Printf("%-22s %10s %9s\n", "codec benchmark", "v3 ns/op", "v3 allocs")
	for _, c := range []struct {
		name string
		m    *wire.Message
	}{{"encode peek", peek}, {"encode peekbatch64", batch}} {
		printCodecRow(c.name, benchEncode(c.m))
	}
	for _, c := range []struct {
		name string
		m    *wire.Message
	}{{"decode peek", peek}, {"decode peekbatch64", batch}} {
		r, err := benchDecode(c.m)
		if err != nil {
			return err
		}
		printCodecRow(c.name, r)
	}
	return nil
}

func printCodecRow(name string, r testing.BenchmarkResult) {
	fmt.Printf("%-22s %10d %9d\n", name, r.NsPerOp(), r.AllocsPerOp())
}

func benchEncode(m *wire.Message) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		enc := wire.NewEncoder(io.Discard, wire.Version)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := enc.Encode(m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// loopReader replays one encoded frame forever, so the decoder can be
// benchmarked without re-priming a buffer per iteration.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func benchDecode(m *wire.Message) (testing.BenchmarkResult, error) {
	var buf bytes.Buffer
	if _, err := wire.WriteMessageV(&buf, m, wire.Version); err != nil {
		return testing.BenchmarkResult{}, err
	}
	return testing.Benchmark(func(b *testing.B) {
		dec := wire.NewDecoder(&loopReader{data: buf.Bytes()}, wire.Version)
		dec.SetReuse(true) // frames are consumed before the next Next
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := dec.Next(); err != nil {
				b.Fatal(err)
			}
		}
	}), nil
}

// wireBenchServer starts a loopback server with a 64-register design
// registered for batch benchmarks.
func wireBenchServer() (*server.Server, string, func(), error) {
	server.Register("wire64", server.Entry{
		Describe: "64-register design for wire benchmarks",
		Build: func() (*zoomie.Design, zoomie.DebugConfig) {
			m := zoomie.NewModule("wire64")
			q := m.Output("q", 16)
			for i := 0; i < 64; i++ {
				r := m.Reg(fmt.Sprintf("r%d", i), 16, "clk", 0)
				m.SetNext(r, zoomie.Add(zoomie.S(r), zoomie.C(uint64(i+1), 16)))
				if i == 0 {
					m.Connect(q, zoomie.S(r))
				}
			}
			return zoomie.NewDesign("wire64", m), zoomie.DebugConfig{Watches: []string{"q"}}
		},
	})
	srv := server.New(server.Config{PoolSize: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		server.Unregister("wire64")
		return nil, "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	cleanup := func() {
		srv.Shutdown()
		<-done
		server.Unregister("wire64")
	}
	return srv, ln.Addr().String(), cleanup, nil
}

func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), d...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// wireRPCTable drives a paused-debug workload over loopback: single
// peeks (latency percentiles) and 64-item batches (throughput in
// items/sec).
func wireRPCTable() error {
	_, addr, cleanup, err := wireBenchServer()
	if err != nil {
		return err
	}
	defer cleanup()

	const peeks = 3000
	const batchRounds = 600
	items := make([]dbg.PlanItem, 64)
	for i := range items {
		items[i] = dbg.PlanItem{Name: fmt.Sprintf("r%d", i)}
	}

	fmt.Println()
	fmt.Printf("%-9s %12s %12s %12s %14s %14s\n",
		"loopback", "peek p50", "peek p99", "peek ops/s", "batch64 µs/op", "batch items/s")
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	sess, err := c.Attach("wire64")
	if err != nil {
		return err
	}
	defer sess.Detach()
	if err := sess.Pause(); err != nil {
		return err
	}

	lat := make([]time.Duration, 0, peeks)
	start := time.Now()
	for i := 0; i < peeks; i++ {
		t0 := time.Now()
		if _, err := sess.Peek("r0"); err != nil {
			return err
		}
		lat = append(lat, time.Since(t0))
	}
	peekRate := float64(peeks) / time.Since(start).Seconds()

	start = time.Now()
	for i := 0; i < batchRounds; i++ {
		if _, err := sess.PeekBatch(items); err != nil {
			return err
		}
	}
	batchDur := time.Since(start)

	fmt.Printf("v%-8d %12v %12v %12.0f %14.1f %14.0f\n", wire.Version,
		percentile(lat, 0.50).Round(time.Microsecond),
		percentile(lat, 0.99).Round(time.Microsecond),
		peekRate,
		float64(batchDur.Microseconds())/float64(batchRounds),
		float64(batchRounds*64)/batchDur.Seconds())
	return nil
}

// wireStreamTable measures streaming observability: a producer bumps a
// registered tap counter as fast as it can while a counters stream
// aggregates the deltas into frames — events/sec is how much telemetry
// crosses the wire as a handful of frames. Paused-debug peek p99 is
// sampled with the stream active and compared against idle.
func wireStreamTable() error {
	srv, addr, cleanup, err := wireBenchServer()
	if err != nil {
		return err
	}
	defer cleanup()

	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	sess, err := c.Attach("wire64")
	if err != nil {
		return err
	}
	if err := sess.Pause(); err != nil {
		return err
	}

	// Producer: an in-process tap bumped once per event, the modeled
	// stand-in for synthesized counter taps on the fabric. Bursts are
	// paced so the producer models a tap, not a CPU burner — the burst
	// itself costs tens of microseconds, the sleep yields the rest. It
	// runs during BOTH legs below, so the baseline/stream comparison
	// isolates the streaming machinery, not the producer's CPU share.
	tap := srv.Obs().Counter("bench.tap.events")
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				for i := 0; i < 4096; i++ {
					tap.Inc()
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Baseline paused-debug p99: producer running, no stream open.
	baseline := make([]time.Duration, 0, 1000)
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		if _, err := sess.Peek("r0"); err != nil {
			close(stop)
			return err
		}
		baseline = append(baseline, time.Since(t0))
	}

	st, err := c.OpenStream(wire.StreamCounters, 0, 64, 10)
	if err != nil {
		close(stop)
		return err
	}

	// Consume frames on a dedicated goroutine, the way a real client
	// does — the peek loop below times nothing but peeks.
	var events, frames, droppedMax uint64
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		for {
			ev, ok := st.Recv()
			if !ok {
				return
			}
			frames++
			events += ev.Count
			if ev.Dropped > droppedMax {
				droppedMax = ev.Dropped
			}
		}
	}()

	const window = 2 * time.Second
	streaming := make([]time.Duration, 0, 1000)
	start := time.Now()
	for time.Since(start) < window {
		t0 := time.Now()
		if _, err := sess.Peek("r0"); err != nil {
			close(stop)
			return err
		}
		streaming = append(streaming, time.Since(t0))
	}
	elapsed := time.Since(start)
	close(stop)
	st.Close()
	<-consumed

	fmt.Println()
	fmt.Printf("%-26s %14s %8s %10s %12s %12s\n",
		"streaming (counters)", "events/s", "frames", "dropped", "idle p99", "stream p99")
	fmt.Printf("%-26s %14.0f %8d %10d %12v %12v\n",
		"paced tap, 10ms agg",
		float64(events)/elapsed.Seconds(), frames, droppedMax,
		percentile(baseline, 0.99).Round(time.Microsecond),
		percentile(streaming, 0.99).Round(time.Microsecond))
	fmt.Println("\nEvents are produced as one atomic add each; the stream carries only")
	fmt.Println("per-interval deltas, so millions of events/sec cost a few frames/sec")
	fmt.Println("on the wire and the paused-debug path stays within its idle envelope.")
	return nil
}
