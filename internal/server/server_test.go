package server_test

import (
	"context"
	"net"
	"testing"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/fpga"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// testDevice returns a modeled device for pool unit tests
// (zoomie.Device aliases fpga.Device, so the types line up).
func testDevice() *fpga.Device { return fpga.NewU200() }

// startServer spins up a zoomied instance on a loopback port and returns
// its address plus the server handle.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func TestAttachDebugDetach(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 2})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sess, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Device == "" || sess.Report == "" || len(sess.Watches) == 0 {
		t.Fatalf("attach metadata incomplete: %+v", sess)
	}

	// The full debug loop over the wire: breakpoint, until, peek, step,
	// poke, snapshot, restore.
	if err := sess.SetValueBreakpoint("q", 50, 1 /* BreakAny */); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunUntilPaused(1 << 14); err != nil {
		t.Fatal(err)
	}
	v, err := sess.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	if v != 50 {
		t.Fatalf("breakpoint paused at cnt=%d, want 50", v)
	}
	if err := sess.Step(3); err != nil {
		t.Fatal(err)
	}
	if v, _ = sess.Peek("cnt"); v != 53 {
		t.Fatalf("after 3 steps cnt=%d, want 53", v)
	}
	wantCycle, err := sess.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	regs, _, cycle, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if regs == 0 || cycle != wantCycle {
		t.Fatalf("snapshot shape regs=%d cycle=%d, want cycle %d", regs, cycle, wantCycle)
	}
	if err := sess.Step(10); err != nil {
		t.Fatal(err)
	}
	if err := sess.Restore(); err != nil {
		t.Fatal(err)
	}
	if v, _ = sess.Peek("cnt"); v != 53 {
		t.Fatalf("restore rewound to cnt=%d, want 53", v)
	}
	if err := sess.Poke("cnt", 1000); err != nil {
		t.Fatal(err)
	}
	if v, _ = sess.Peek("cnt"); v != 1000 {
		t.Fatalf("poke stuck at cnt=%d, want 1000", v)
	}
	lines, err := sess.Inspect("dut")
	if err != nil || len(lines) == 0 {
		t.Fatalf("inspect: %d lines, err %v", len(lines), err)
	}
	tr, err := sess.TraceSteps([]string{"cnt"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Rows) != 5 { // initial sample + 4 steps
		t.Fatalf("trace rows %d, want 5", len(tr.Rows))
	}
	paused, cycles, elapsed, err := sess.Status()
	if err != nil || !paused || cycles == 0 || elapsed <= 0 {
		t.Fatalf("status paused=%v cycles=%d elapsed=%v err=%v", paused, cycles, elapsed, err)
	}
	if err := sess.Detach(); err != nil {
		t.Fatal(err)
	}
	// The session is gone: further commands answer no_session.
	if _, err := sess.Peek("cnt"); !wire.IsCode(err, wire.CodeNoSession) {
		t.Fatalf("peek after detach: %v, want no_session", err)
	}
}

func TestBreakpointEventDelivery(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetValueBreakpoint("q", 25, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunUntilPaused(1 << 14); err != nil {
		t.Fatal(err)
	}
	// The attach auto-subscribed this connection: the pause must arrive
	// as an asynchronous event, no polling involved.
	select {
	case e := <-c.Events():
		if e.Kind != wire.EvtPaused || e.Session != sess.ID {
			t.Fatalf("unexpected event %+v", e)
		}
		if e.Cycles != 25 {
			t.Fatalf("pause event at cycle %d, want 25", e.Cycles)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no breakpoint event within 5s")
	}
}

// TestTwoClientsIndependentAndIdleReclaim is the acceptance scenario:
// two clients on two designs debug independently; killing one client
// mid-run leaks nothing — the idle timeout auto-detaches its session and
// the board is re-leased to a third client.
func TestTwoClientsIndependentAndIdleReclaim(t *testing.T) {
	const idle = 300 * time.Millisecond
	srv, addr := startServer(t, server.Config{PoolSize: 2, IdleTimeout: idle})

	// Client A: counter. Client B: the cohort accelerator.
	ca, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	sa, err := ca.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := cb.Attach("cohort")
	if err != nil {
		t.Fatal(err)
	}

	// Independent breakpoint/step/peek: A breakpoints its counter...
	if err := sa.SetValueBreakpoint("q", 40, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.RunUntilPaused(1 << 14); err != nil {
		t.Fatal(err)
	}
	if v, _ := sa.Peek("cnt"); v != 40 {
		t.Fatalf("A paused at cnt=%d, want 40", v)
	}
	// ...while B pauses, steps and inspects the accelerator.
	if err := sb.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Step(5); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Peek("datapath.result_cnt"); err != nil {
		t.Fatal(err)
	}
	// A's pause state must be untouched by B's activity.
	if paused, _ := sa.Paused(); !paused {
		t.Fatal("A's breakpoint pause was disturbed by B")
	}
	if err := sa.Step(1); err != nil {
		t.Fatal(err)
	}
	if v, _ := sa.Peek("cnt"); v != 41 {
		t.Fatalf("A stepped to cnt=%d, want 41", v)
	}

	// Pool is full: a third client cannot attach.
	cc, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if _, err := cc.Attach("counter"); !wire.IsCode(err, wire.CodePoolExhausted) {
		t.Fatalf("third attach with full pool: %v, want pool_exhausted", err)
	}

	// Keep A warm so only B goes idle.
	stop := make(chan struct{})
	kept := make(chan struct{})
	go func() {
		defer close(kept)
		for {
			select {
			case <-stop:
				return
			case <-time.After(idle / 4):
				sa.Peek("cnt")
			}
		}
	}()
	defer func() { close(stop); <-kept }()

	// Kill B mid-run: resume the design, then drop the connection
	// without detaching.
	if err := sb.Resume(); err != nil {
		t.Fatal(err)
	}
	cb.Close()

	// B's session must be reaped after the idle timeout and its board
	// re-leased to the third client.
	deadline := time.Now().Add(30 * time.Second)
	var sc *client.Session
	for {
		sc, err = cc.Attach("counter")
		if err == nil {
			break
		}
		if !wire.IsCode(err, wire.CodePoolExhausted) {
			t.Fatalf("third attach: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("board was never reclaimed from the dead client")
		}
		time.Sleep(idle / 2)
	}
	if err := sc.Step(2); err != nil {
		t.Fatalf("re-leased board is not debuggable: %v", err)
	}
	// A survived throughout.
	if v, _ := sa.Peek("cnt"); v != 41 {
		t.Fatalf("A's state changed during reclaim: cnt=%d, want 41", v)
	}
	st := srv.Stats()
	if st.IdleReaped < 1 {
		t.Errorf("idle_reaped=%d, want >=1", st.IdleReaped)
	}
	if st.Interleaved != 0 {
		t.Errorf("interleaved=%d, want 0", st.Interleaved)
	}
}

func TestAttachUnknownAndAllowlist(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 1, Allow: []string{"counter"}})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Attach("nonesuch"); !wire.IsCode(err, wire.CodeUnknownDesign) {
		t.Fatalf("unknown design: %v", err)
	}
	if _, err := c.Attach("netstack"); !wire.IsCode(err, wire.CodeForbidden) {
		t.Fatalf("allowlisted design: %v", err)
	}
	if _, err := c.Attach("counter"); err != nil {
		t.Fatalf("allowed design: %v", err)
	}
}

// TestDaemonRefusesFleetOps: the fleet ops are zfleet's, so a plain
// zoomied answers them with a typed unknown-op error before it looks for
// a session, with or without a session id, never with "no session 0".
func TestDaemonRefusesFleetOps(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{wire.OpFleetStat, wire.OpFleetDrain} {
		if _, err := c.Call(&wire.Request{Op: op, Name: addr, Enable: true}); !wire.IsCode(err, wire.CodeUnknownOp) {
			t.Errorf("session-less %s: %v, want %s", op, err, wire.CodeUnknownOp)
		}
		if _, err := sess.Do(context.Background(), &wire.Request{Op: op}); !wire.IsCode(err, wire.CodeUnknownOp) {
			t.Errorf("%s on session %d: %v, want %s", op, sess.ID, err, wire.CodeUnknownOp)
		}
	}
}

// hello sends one hello offering ver on a fresh connection and returns
// the reply.
func hello(t *testing.T, addr string, ver int) *wire.Response {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := wire.WriteMessage(nc, wire.Req(&wire.Request{ID: 1, Op: wire.OpHello, Version: ver})); err != nil {
		t.Fatal(err)
	}
	m, _, err := wire.ReadMessage(nc)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resp == nil {
		t.Fatalf("hello answered with %+v", m)
	}
	return m.Resp
}

func TestVersionHandshake(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 1})

	// A client newer than the server is answered with the server's
	// version instead of being refused.
	if r := hello(t, addr, 999); r.Err != nil || r.Version != wire.Version {
		t.Fatalf("newer client should be answered with %d, got %+v", wire.Version, r)
	}
	// Retired versions, and anything else below MinVersion, are refused
	// with CodeVersion.
	for _, ver := range []int{1, 2, wire.MinVersion - 1} {
		if r := hello(t, addr, ver); r.Err == nil || r.Err.Code != wire.CodeVersion {
			t.Errorf("v%d hello answered with %+v, want %s", ver, r, wire.CodeVersion)
		}
	}
}

func TestServerStatsCounters(t *testing.T) {
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
	for i := 0; i < 5; i++ {
		if _, err := sess.Peek("cnt"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsActive != 1 || st.SessionsTotal != 1 {
		t.Errorf("sessions active=%d total=%d, want 1/1", st.SessionsActive, st.SessionsTotal)
	}
	if st.CommandsServed < 6 {
		t.Errorf("commands_served=%d, want >=6", st.CommandsServed)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Errorf("byte counters idle: in=%d out=%d", st.BytesIn, st.BytesOut)
	}
	if st.PoolCapacity != 1 || st.PoolInUse != 1 {
		t.Errorf("pool %d/%d, want 1/1", st.PoolInUse, st.PoolCapacity)
	}
	var latTotal int64
	for _, n := range st.LatencyBuckets {
		latTotal += n
	}
	if latTotal == 0 {
		t.Error("latency histogram recorded nothing")
	}
	// Graceful shutdown pauses the design and releases the board.
	srv.Shutdown()
	if got := srv.Stats().PoolInUse; got != 0 {
		t.Errorf("pool in use after shutdown: %d", got)
	}
}

func TestPoolLeaseAccounting(t *testing.T) {
	p := server.NewPool(2)
	dev := testDevice()
	l1, err := p.Lease(dev)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := p.Lease(dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Lease(dev); err == nil {
		t.Fatal("third lease from a 2-pool succeeded")
	}
	l1.Release()
	l1.Release() // idempotent
	if p.InUse() != 1 {
		t.Fatalf("in use %d, want 1", p.InUse())
	}
	if _, err := p.Lease(dev); err != nil {
		t.Fatalf("re-lease after release: %v", err)
	}
	l2.Release()
	granted, denied, released := p.Counters()
	if granted != 3 || denied != 1 || released != 2 {
		t.Fatalf("counters granted=%d denied=%d released=%d", granted, denied, released)
	}
}
