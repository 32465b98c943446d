package server_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// TestCountersStream opens a server-wide counters stream and checks that
// command activity surfaces as aggregated per-interval deltas: the hot
// path bumps atomics, the stream carries named sums, never the events.
func TestCountersStream(t *testing.T) {
	srv, addr := startServer(t, server.Config{PoolSize: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream(wire.StreamCounters, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}

	const peeks = 40
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peeks; i++ {
		if _, err := sess.Peek("cnt"); err != nil {
			t.Fatal(err)
		}
	}

	// Accumulate frames until the peek counter's deltas sum to at least
	// the peeks we issued (they may arrive split over several intervals).
	deadline := time.After(5 * time.Second)
	var peekSum, frames uint64
	for peekSum < peeks {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		ev, ok := st.RecvCtx(ctx)
		cancel()
		if !ok {
			select {
			case <-deadline:
				t.Fatalf("stream closed/stalled after %d frames, peek deltas sum %d, want >=%d",
					frames, peekSum, peeks)
			default:
				t.Fatalf("stream closed early")
			}
		}
		frames++
		if ev.Kind != wire.EvtStream || ev.Stream != st.ID || ev.Seq == 0 {
			t.Fatalf("malformed frame: %+v", ev)
		}
		if len(ev.Names) != len(ev.Deltas) {
			t.Fatalf("names/deltas mismatch: %v vs %v", ev.Names, ev.Deltas)
		}
		for i, n := range ev.Names {
			if n == "zoomied.peeks" {
				peekSum += ev.Deltas[i]
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Recv(); ok {
		t.Error("Recv delivered a frame after Close")
	}

	stats := srv.Stats()
	if stats.StreamsOpened < 1 || stats.StreamFrames < int64(frames) {
		t.Errorf("stream stats not accounted: %+v", stats)
	}
	if stats.StreamEvents < peeks {
		t.Errorf("StreamEvents=%d, want >=%d", stats.StreamEvents, peeks)
	}
}

// TestILAStream attaches the ila-counter design and checks that capture
// windows flow continuously: the actor uploads each completed window in
// one batched readback, re-arms the trigger, and the frames decode to
// the counter's actual trajectory (qlow == q & 0xf, consecutive values).
func TestILAStream(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Attach("ila-counter")
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream(wire.StreamILA, sess.ID, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Keep the clock moving so windows keep completing; the poll op is
	// serialized with these Run commands by the session actor.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				sess.Run(64)
				time.Sleep(time.Millisecond)
			}
		}
	}()
	defer close(stop)

	var windows int
	for windows < 3 {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		ev, ok := st.RecvCtx(ctx)
		cancel()
		if !ok {
			t.Fatalf("ILA stream stalled after %d windows", windows)
		}
		windows++
		if len(ev.Names) != 2 || ev.Names[0] != "q" || ev.Names[1] != "qlow" {
			t.Fatalf("probe names = %v, want [q qlow]", ev.Names)
		}
		if len(ev.Rows) != 16 {
			t.Fatalf("window depth = %d rows, want 16", len(ev.Rows))
		}
		for i, row := range ev.Rows {
			if len(row) != 2 {
				t.Fatalf("row %d has %d values, want 2", i, len(row))
			}
			if row[1] != row[0]&0xf {
				t.Fatalf("row %d: qlow=%d but q=%d", i, row[1], row[0])
			}
			if i > 0 && row[0] != (ev.Rows[i-1][0]+1)&0xffff {
				t.Fatalf("window not contiguous at row %d: %d after %d", i, row[0], ev.Rows[i-1][0])
			}
		}
		// The trigger is qlow==0, so each window starts on a 16-aligned
		// counter value.
		if ev.Rows[0][1] != 0 {
			t.Fatalf("window does not start at trigger: qlow=%d", ev.Rows[0][1])
		}
	}
}

// TestStreamBackpressure pins the flow-control contract on both front
// ends: a client that never consumes its counters stream makes the
// serving layer shed the oldest pending frames (counted, visible in
// later frames' Dropped field) while the session keeps serving
// interactive commands at full speed.
func TestStreamBackpressure(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		stats, addr := fe.start(t, server.Config{PoolSize: 1})
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sess, err := c.Attach("counter")
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Pause(); err != nil {
			t.Fatal(err)
		}

		// window=1: the server may have exactly one frame in flight. We
		// never Recv, so everything past the first frame piles into the
		// pending ring (cap 64) and then sheds oldest-first.
		st, err := c.OpenStream(wire.StreamCounters, 0, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()

		// Generate activity every interval for long enough to overflow the
		// ring, and prove the paused-debug path stays responsive throughout.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			start := time.Now()
			if _, err := sess.Peek("cnt"); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("peek took %v while stream backed up — streaming blocked the actor", d)
			}
			if stats().StreamDropped > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if stats().StreamDropped == 0 {
			t.Fatal("stalled stream never shed frames")
		}

		// Consuming again surfaces the drop count in-band: grant credits by
		// receiving, and a subsequent frame must carry Dropped > 0.
		sawDropped := false
		for i := 0; i < 70 && !sawDropped; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			ev, ok := st.RecvCtx(ctx)
			cancel()
			if !ok {
				break
			}
			if ev.Dropped > 0 {
				sawDropped = true
			}
			// Keep producing so post-drop frames exist to deliver.
			sess.Peek("cnt")
		}
		if !sawDropped {
			t.Error("no delivered frame carried the drop counter")
		}
	})
}

// TestStreamErrors covers the open/credit/close edge cases on both front
// ends: unknown stream ids, unknown kinds, ILA streams on ILA-less
// designs or dead sessions.
func TestStreamErrors(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		_, addr := fe.start(t, server.Config{PoolSize: 2})
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		_, err = c.Call(&wire.Request{Op: wire.OpStreamCredit, Stream: 99, N: 1})
		if !wire.IsCode(err, wire.CodeNoStream) {
			t.Errorf("credit unknown stream: %v, want CodeNoStream", err)
		}
		_, err = c.Call(&wire.Request{Op: wire.OpStreamClose, Stream: 99})
		if !wire.IsCode(err, wire.CodeNoStream) {
			t.Errorf("close unknown stream: %v, want CodeNoStream", err)
		}
		if _, err = c.OpenStream("wavelets", 0, 0, 0); !wire.IsCode(err, wire.CodeBadRequest) {
			t.Errorf("unknown stream kind: %v, want CodeBadRequest", err)
		}
		if _, err = c.OpenStream(wire.StreamILA, 424242, 0, 0); !wire.IsCode(err, wire.CodeNoSession) {
			t.Errorf("ILA stream on missing session: %v, want CodeNoSession", err)
		}

		sess, err := c.Attach("counter") // no ILA on this design
		if err != nil {
			t.Fatal(err)
		}
		if _, err = c.OpenStream(wire.StreamILA, sess.ID, 0, 0); !wire.IsCode(err, wire.CodeBadRequest) {
			t.Errorf("ILA stream on ILA-less design: %v, want CodeBadRequest", err)
		}

		// An ILA stream dies with its session rather than erroring forever.
		isess, err := c.Attach("ila-counter")
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.OpenStream(wire.StreamILA, isess.ID, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := isess.Detach(); err != nil {
			t.Fatal(err)
		}
		// Drain whatever was in flight; the channel must stop yielding new
		// windows once the session is gone (the producer goroutine exits).
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			_, ok := st.RecvCtx(ctx)
			cancel()
			if !ok {
				break
			}
		}
		st.Close() // best effort; the stream may already be torn down
	})
}

// TestStreamEndsWithProducer pins that a stream whose producer ended
// closes for its client, on both front ends: an ILA stream whose session
// detached reports closed within a second instead of blocking Recv. On
// zfleet the daemon-side stream ends, and the forwarded stream with it.
func TestStreamEndsWithProducer(t *testing.T) {
	eachFrontEnd(t, func(t *testing.T, fe frontEnd) {
		_, addr := fe.start(t, server.Config{PoolSize: 1})
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sess, err := c.Attach("ila-counter")
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.OpenStream(wire.StreamILA, sess.ID, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Detach(); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		for {
			if _, ok := st.RecvCtx(ctx); !ok {
				break
			}
		}
		if ctx.Err() != nil {
			t.Fatal("the ILA stream was still open 1s after its session detached")
		}
	})
}

// TestTypedCodesAgreeAcrossDaemons runs two daemons side by side:
// identical misuse classifies identically on both, and both errors
// unwrap to the same sentinel.
func TestTypedCodesAgreeAcrossDaemons(t *testing.T) {
	var errs [2]error
	for i := range errs {
		_, addr := startServer(t, server.Config{PoolSize: 1})
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s, err := c.Attach("counter")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Pause(); err != nil {
			t.Fatal(err)
		}
		_, errs[i] = s.PeekMem("cnt", 0)
	}
	var we0, we1 *wire.Error
	if !errors.As(errs[0], &we0) || !errors.As(errs[1], &we1) || we0.Code != we1.Code {
		t.Fatalf("daemons disagreed on typed code: %v vs %v", errs[0], errs[1])
	}
	if !errors.Is(errs[0], we0.Unwrap()) || we0.Unwrap() == nil {
		t.Errorf("error does not unwrap to its sentinel: %v", errs[0])
	}
}
