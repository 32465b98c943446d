package server_test

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/faults"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// TestStatusMatchesCountersStream pins the one counter registry: a
// counters stream and the status reply read the same numbers. A session
// peeks, pokes, steps, streams an ILA window, is probed, and has its
// board wedged and migrated under an injector before it detaches. Then,
// for every counter of the daemon's registry, the stream's summed deltas
// must equal the change in the status field the counter is named after.
func TestStatusMatchesCountersStream(t *testing.T) {
	srv, addr := startServer(t, server.Config{
		PoolSize:           2,
		Chaos:              &faults.Profile{Seed: 7, ReadFlip: 0.005, Exec: 0.01},
		ProbeInterval:      20 * time.Millisecond,
		QuarantineCooldown: time.Hour,
	})
	c, err := client.DialOptions(addr, client.Options{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	status := func() *wire.Stats {
		t.Helper()
		resp, err := c.Call(&wire.Request{Op: wire.OpStatus})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Stats
	}

	before := status()
	// A window large enough that the test never has to grant credit
	// while the session runs.
	st, err := c.OpenStream(wire.StreamCounters, 0, 4096, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sess, err := c.Attach("ila-counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := sess.Poke("dut.cnt", uint64(100*i)); err != nil {
			t.Fatal(err)
		}
		if err := sess.Step(1 + i%3); err != nil {
			t.Fatal(err)
		}
		if v, err := sess.Peek("dut.cnt"); err != nil || v != uint64(100*i+1+i%3) {
			t.Fatalf("peek cnt = %d, %v", v, err)
		}
	}
	ila, err := c.OpenStream(wire.StreamILA, sess.ID, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for got, deadline := false, time.Now().Add(10*time.Second); !got; {
		if time.Now().After(deadline) {
			t.Fatal("no ILA window within 10s")
		}
		if err := sess.Run(64); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		_, got = ila.RecvCtx(ctx)
		cancel()
	}
	if err := ila.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}

	srv.InjectorFor(sess.ID).Wedge()
	for deadline := time.After(10 * time.Second); ; {
		select {
		case e := <-c.Events():
			if e.Kind != wire.EvtMigrated {
				continue
			}
		case <-deadline:
			t.Fatal("the wedged board was never migrated")
		}
		break
	}
	if _, err := sess.Peek("dut.cnt"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}

	// The detached session's last fold lands after its detach is
	// acknowledged, so compare until the numbers settle.
	sums := map[string]uint64{}
	var mismatch []string
	for deadline := time.Now().Add(10 * time.Second); ; {
		after := status()
		time.Sleep(100 * time.Millisecond) // ten intervals: the status's own count flushes
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			ev, ok := st.RecvCtx(ctx)
			cancel()
			if !ok {
				break
			}
			for i, n := range ev.Names {
				sums[n] += ev.Deltas[i]
			}
		}
		mismatch = compareStatus(t, srv, before, after, sums)
		if len(mismatch) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("status and counters stream disagree:\n%s", strings.Join(mismatch, "\n"))
		}
	}
	for _, key := range []string{"jtag_retries", "faults_injected", "probes", "migrations", "ila_windows"} {
		if sums["zoomied."+key] == 0 {
			t.Errorf("zoomied.%s never moved: the run does not cover it", key)
		}
	}
	var latency uint64
	for i := range wire.LatencyBounds {
		latency += sums["zoomied.latency_us."+strconv.Itoa(i)]
	}
	if latency == 0 {
		t.Error("no latency bucket moved")
	}
}

// compareStatus returns one line per daemon counter whose summed stream
// deltas differ from the change in its status field between before and
// after. A counter is named "zoomied." plus the field's JSON key, a
// latency bucket "zoomied.latency_us.<i>"; only the op counters have no
// field.
func compareStatus(t *testing.T, srv *server.Server, before, after *wire.Stats, sums map[string]uint64) []string {
	t.Helper()
	fields := func(s *wire.Stats) map[string]any {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	value := func(m map[string]any, key string) (float64, bool) {
		key, bucket, isBucket := strings.Cut(key, ".")
		v, ok := m[key]
		if !isBucket {
			f, isNum := v.(float64)
			return f, ok && isNum
		}
		i, err := strconv.Atoi(bucket)
		arr, isArr := v.([]any)
		if err != nil || !isArr || i >= len(arr) {
			return 0, false
		}
		return arr[i].(float64), true
	}
	b, a := fields(before), fields(after)
	var out []string
	for _, name := range srv.Obs().Names() {
		key, ok := strings.CutPrefix(name, "zoomied.")
		if !ok {
			continue
		}
		was, ok1 := value(b, key)
		now, ok2 := value(a, key)
		if !ok1 || !ok2 {
			switch key {
			case "commands", "peeks", "pokes", "cycles":
			default:
				out = append(out, name+": no status field of that name")
			}
			continue
		}
		want := uint64(now - was)
		if key == "commands_served" {
			want-- // the stream's open is counted before its reader primes
		}
		if sums[name] != want {
			out = append(out, name+": stream "+strconv.FormatUint(sums[name], 10)+
				", status change "+strconv.FormatUint(want, 10))
		}
	}
	return out
}

// TestIdleCountersStreamSilent pins that a counters stream reads
// only counters that activity moves: with probing off and no client
// activity, three intervals pass without a frame. The stream's own open
// reply moves the transport counters, which is why they are not in the
// registry the stream reads.
func TestIdleCountersStreamSilent(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Attach("counter"); err != nil {
		t.Fatal(err)
	}
	const interval = 50 * time.Millisecond
	st, err := c.OpenStream(wire.StreamCounters, 0, 0, int(interval/time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*interval)
	defer cancel()
	if ev, ok := st.RecvCtx(ctx); ok {
		t.Fatalf("an idle daemon sent a counters frame: %v %v", ev.Names, ev.Deltas)
	}
}
