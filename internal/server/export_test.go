package server_test

import (
	"context"
	"reflect"
	"testing"

	"zoomie/internal/client"
	"zoomie/internal/dbg"
	"zoomie/internal/faults"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// TestStateExportMatchesFullRead checks the snapshot inside a state
// export against a full read: after mixed commands it must decode to
// exactly the full-scope snapshot of a local twin driven through the same
// commands. Exports recur, so later ones refresh the known-good snapshot
// from earlier ones — with no fault injector bound (refreshed only by
// exports) and with one (refreshed after every mutating command too).
func TestStateExportMatchesFullRead(t *testing.T) {
	for _, chaos := range []*faults.Profile{nil, {Seed: 5, ReadFlip: 0.01}} {
		_, addr := startServer(t, server.Config{PoolSize: 1, Chaos: chaos})
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		sess, err := c.Attach("counter")
		if err != nil {
			t.Fatal(err)
		}
		twin, err := server.NewCatalogSession("counter", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()

		until := func(s interface {
			RunUntilPaused(int) (int, error)
		}) func() error {
			return func() error { _, err := s.RunUntilPaused(1 << 14); return err }
		}
		steps := []struct{ remote, local func() error }{
			{func() error { return sess.Run(40) }, func() error { twin.Run(40); return nil }},
			{sess.Pause, twin.Pause},
			{func() error { return sess.Poke("cnt", 777) }, func() error { return twin.Poke("cnt", 777) }},
			{func() error { return sess.Step(3) }, func() error { return twin.Step(3) }},
			{func() error { return sess.SetValueBreakpoint("q", 900, dbg.BreakAny) },
				func() error { return twin.SetValueBreakpoint("q", 900, dbg.BreakAny) }},
			{sess.Resume, twin.Resume},
			{until(sess), until(twin)},
			{func() error { return sess.Poke("cnt", 5) }, func() error { return twin.Poke("cnt", 5) }},
		}
		for i, st := range steps {
			if err := st.remote(); err != nil {
				t.Fatalf("step %d remote: %v", i, err)
			}
			if err := st.local(); err != nil {
				t.Fatalf("step %d local: %v", i, err)
			}
			if i%2 == 0 {
				continue
			}
			blob, cyc, err := sess.StateExport(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			snap, _, err := server.DecodeExport(blob)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Snapshot("")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap, want) || cyc != want.Cycle {
				t.Fatalf("chaos=%v after step %d: exported snapshot (cycle %d) differs from a full read (cycle %d)",
					chaos != nil, i, cyc, want.Cycle)
			}
		}
	}
}

// TestStateExportImport drives the cross-daemon failover transport
// directly: debug a session into an interesting state (breakpoint armed,
// paused mid-run, history recorded), export it, import the blob on a
// *different* server, and require the imported session to behave
// byte-identically — values, pause state, armed breakpoint, and a
// time-travel seek into pre-export history.
func TestStateExportImport(t *testing.T) {
	_, addrA := startServer(t, server.Config{PoolSize: 2})
	_, addrB := startServer(t, server.Config{PoolSize: 2})
	ca, err := client.Dial(addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := client.Dial(addrB)
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	src, err := ca.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.SetValueBreakpoint("q", 50, dbg.BreakAny); err != nil {
		t.Fatal(err)
	}
	if _, err := src.RunUntilPaused(1 << 14); err != nil {
		t.Fatal(err)
	}
	if err := src.Step(25); err != nil {
		t.Fatal(err)
	}
	// Re-arm a breakpoint ahead of the counter *before* exporting: the
	// imported session must carry it still armed and un-fired.
	if err := src.SetValueBreakpoint("q", 200, dbg.BreakAny); err != nil {
		t.Fatal(err)
	}
	wantCnt, err := src.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	wantPaused, wantCycles, _, err := src.Status()
	if err != nil {
		t.Fatal(err)
	}

	blob, cyc, err := src.StateExport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cyc != wantCycles {
		t.Fatalf("export cycle %d, want %d", cyc, wantCycles)
	}
	if len(blob) == 0 {
		t.Fatal("empty export blob")
	}

	dst, err := cb.AttachWithState(context.Background(), "counter", blob)
	if err != nil {
		t.Fatal(err)
	}
	gotCnt, err := dst.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	if gotCnt != wantCnt {
		t.Fatalf("imported cnt = %d, want %d", gotCnt, wantCnt)
	}
	gotPaused, gotCycles, _, err := dst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if gotPaused != wantPaused || gotCycles != wantCycles {
		t.Fatalf("imported (paused,cycles) = (%v,%d), want (%v,%d)",
			gotPaused, gotCycles, wantPaused, wantCycles)
	}

	// The armed breakpoint traveled: resumed side by side, the source
	// and the imported session pause at q==200 in lockstep — same
	// register value, same cycle count.
	for _, s := range []*client.Session{src, dst} {
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunUntilPaused(1 << 14); err != nil {
			t.Fatalf("armed breakpoint lost in transit: %v", err)
		}
	}
	srcCnt, err := src.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	dstCnt, err := dst.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	_, srcCyc, _, err := src.Status()
	if err != nil {
		t.Fatal(err)
	}
	_, dstCyc, _, err := dst.Status()
	if err != nil {
		t.Fatal(err)
	}
	if srcCnt != dstCnt || srcCyc != dstCyc {
		t.Fatalf("post-failover divergence: src (cnt=%d, cyc=%d), dst (cnt=%d, cyc=%d)",
			srcCnt, srcCyc, dstCnt, dstCyc)
	}

	// History traveled too: seek back to a cycle recorded before the
	// export, on the importing daemon.
	if wantCycles < 10 {
		t.Fatalf("test design ran only %d cycles", wantCycles)
	}
	if _, err := dst.HistSeek(wantCycles - 10); err != nil {
		t.Fatalf("seek into pre-export history: %v", err)
	}
	got, err := dst.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCycles-10 {
		t.Fatalf("seek landed at cycle %d, want %d", got, wantCycles-10)
	}

	// Corrupt blobs are refused, not panicked on.
	if _, err := cb.AttachWithState(context.Background(), "counter", []byte("garbage")); !wire.IsCode(err, wire.CodeBadRequest) {
		t.Fatalf("garbage import error = %v, want CodeBadRequest", err)
	}
}
