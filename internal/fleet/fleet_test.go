package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/dberr"
	"zoomie/internal/dbg"
	"zoomie/internal/faults"
	"zoomie/internal/fleet"
	"zoomie/internal/obs"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// startDaemon brings up one zoomied on a loopback port.
func startDaemon(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 8
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return srv, ln.Addr().String()
}

// fastFleet fills in aggressive timings so tests converge quickly.
func fastFleet(cfg fleet.Config) fleet.Config {
	if cfg.HeartbeatEvery == 0 {
		cfg.HeartbeatEvery = 25 * time.Millisecond
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 250 * time.Millisecond
	}
	if cfg.RequalifyBackoff == 0 {
		cfg.RequalifyBackoff = 15 * time.Millisecond
	}
	return cfg
}

// startFleet brings up a coordinator over the given daemons and waits
// until every daemon has qualified.
func startFleet(t *testing.T, cfg fleet.Config) (*fleet.Coordinator, string) {
	t.Helper()
	co, err := fleet.New(fastFleet(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatal(lerr)
	}
	go co.Serve(ln)
	t.Cleanup(co.Shutdown)
	addr := ln.Addr().String()
	waitDaemons(t, addr, len(cfg.Daemons))
	return co, addr
}

// waitDaemons polls OpFleetStat until n daemons report healthy.
func waitDaemons(t *testing.T, fleetAddr string, n int) {
	t.Helper()
	c, err := client.Dial(fleetAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Call(&wire.Request{Op: wire.OpFleetStat})
		if err == nil {
			healthy := 0
			for _, l := range resp.Lines {
				if strings.Contains(l, "healthy") {
					healthy++
				}
			}
			if healthy >= n {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("fleet at %s never reported %d healthy daemons", fleetAddr, n)
}

// TestFleetTransparent drives an ordinary client workflow through the
// coordinator: attach, breakpoint, until, peek, history seek, status,
// detach — the client cannot tell it isn't talking to a daemon.
func TestFleetTransparent(t *testing.T) {
	_, a := startDaemon(t, server.Config{})
	_, b := startDaemon(t, server.Config{})
	_, fa := startFleet(t, fleet.Config{Daemons: []string{a, b}})

	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetValueBreakpoint("q", 100, dbg.BreakAny); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilPaused(1 << 14); err != nil {
		t.Fatal(err)
	}
	cnt, err := s.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	if cnt == 0 {
		t.Fatal("breakpoint fired with cnt = 0")
	}
	paused, cycles, _, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !paused || cycles == 0 {
		t.Fatalf("status after breakpoint: paused=%v cycles=%d", paused, cycles)
	}
	// Time travel works through the coordinator.
	if _, err := s.HistSeek(cycles - 5); err != nil {
		t.Fatalf("hist seek through fleet: %v", err)
	}
	got, err := s.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	if got != cycles-5 {
		t.Fatalf("seek landed at %d, want %d", got, cycles-5)
	}

	// The admin surface reports the placement.
	resp, err := c.Call(&wire.Request{Op: wire.OpFleetStat})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, l := range resp.Lines {
		if strings.Contains(l, "sessions=1") {
			total++
		}
	}
	if total != 1 {
		t.Fatalf("fleetstat shows %d daemons with the session, want 1:\n%s",
			total, strings.Join(resp.Lines, "\n"))
	}
	if resp.Stats == nil || resp.Stats.SessionsActive != 1 {
		t.Fatalf("fleet stats = %+v, want 1 active session", resp.Stats)
	}
	// The serving layer counts the coordinator's transport like a daemon's.
	if resp.Stats.BytesIn == 0 || resp.Stats.BytesOut == 0 {
		t.Errorf("fleet byte counters idle: in=%d out=%d", resp.Stats.BytesIn, resp.Stats.BytesOut)
	}

	if err := s.Detach(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cycles(); !wire.IsCode(err, wire.CodeNoSession) {
		t.Fatalf("post-detach call = %v, want CodeNoSession", err)
	}
}

// TestFleetRefusesCompileOps: zfleet runs no compile farm, so it answers
// the compile ops with a typed unknown-op error even when they carry a
// session id, and forwards none of them. A forwarded submit would
// compile on the session's daemon and, journaled as a mutating command,
// compile again on every failover replay.
func TestFleetRefusesCompileOps(t *testing.T) {
	_, a := startDaemon(t, server.Config{})
	_, fa := startFleet(t, fleet.Config{Daemons: []string{a}})
	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []*wire.Request{
		{Op: wire.OpCompileSubmit, Design: "counter"},
		{Op: wire.OpCompileSubmit, Design: "counter", Mode: "check", N: 1},
		{Op: wire.OpCompileStatus},
		{Op: wire.OpCompileCancel, Value: 1},
	} {
		if _, err := s.Do(context.Background(), req); !wire.IsCode(err, wire.CodeUnknownOp) {
			t.Errorf("%s (mode %q) through zfleet: %v, want %s", req.Op, req.Mode, err, wire.CodeUnknownOp)
		}
	}

	// No compile reached the daemon: its farm has no job.
	d, err := client.Dial(a)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := d.Call(&wire.Request{Op: wire.OpCompileStatus})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Lines) != 0 {
		t.Errorf("the daemon's farm holds jobs:\n%s", strings.Join(resp.Lines, "\n"))
	}
}

// TestFleetOverloadShed fills the fleet to capacity and requires the
// next attach to be refused fast with the typed overload error and a
// retry-after hint, existing sessions to keep working, and an attach to
// land once a slot frees.
func TestFleetOverloadShed(t *testing.T) {
	_, a := startDaemon(t, server.Config{})
	_, b := startDaemon(t, server.Config{})
	_, fa := startFleet(t, fleet.Config{
		Daemons:      []string{a, b},
		MaxPerDaemon: 1,
		RetryAfterMS: 25,
	})

	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	s1, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attach("counter"); err != nil {
		t.Fatal(err)
	}

	// Capacity exhausted: the shed is typed, immediate, and hinted.
	start := time.Now()
	_, err = c.Attach("counter")
	if !wire.IsCode(err, wire.CodeOverloaded) {
		t.Fatalf("over-capacity attach error = %v, want CodeOverloaded", err)
	}
	if !errors.Is(err, dberr.ErrOverloaded) {
		t.Fatalf("overload error does not unwrap to dberr.ErrOverloaded: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shed took %v, want fast refusal", d)
	}
	resp, err := c.Call(&wire.Request{Op: wire.OpAttach, Design: "counter"})
	if !wire.IsCode(err, wire.CodeOverloaded) || resp == nil || resp.Value != 25 {
		t.Fatalf("over-capacity attach answered %+v, %v; want CodeOverloaded with a 25 ms retry-after hint", resp, err)
	}

	// Existing sessions keep working at capacity.
	if err := s1.Step(5); err != nil {
		t.Fatalf("existing session under overload: %v", err)
	}

	// A freed slot admits the next attach.
	if err := s1.Detach(); err != nil {
		t.Fatal(err)
	}
	s3, err := c.Attach("counter")
	if err != nil {
		t.Fatalf("attach after a slot freed: %v", err)
	}
	if err := s3.Step(1); err != nil {
		t.Fatal(err)
	}
}

// TestFleetDrain migrates a daemon's sessions away with state intact
// and keeps new placements off it until drain is lifted.
func TestFleetDrain(t *testing.T) {
	_, a := startDaemon(t, server.Config{})
	_, b := startDaemon(t, server.Config{})
	_, fa := startFleet(t, fleet.Config{Daemons: []string{a, b}})

	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetValueBreakpoint("q", 300, dbg.BreakAny); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(40); err != nil {
		t.Fatal(err)
	}
	wantCnt, err := s.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}

	// The session landed on the least-loaded daemon — both empty, so the
	// first-configured one. Drain it.
	resp, err := c.Call(&wire.Request{Op: wire.OpFleetDrain, Name: a, Enable: true})
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	migrated := false
	for _, l := range resp.Lines {
		if strings.Contains(l, "session migrated") {
			migrated = true
		}
	}
	if !migrated {
		t.Fatalf("drain did not migrate the session:\n%s", strings.Join(resp.Lines, "\n"))
	}

	// State survived the move, including the armed breakpoint.
	gotCnt, err := s.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	if gotCnt != wantCnt {
		t.Fatalf("cnt after drain = %d, want %d", gotCnt, wantCnt)
	}
	if _, err := s.RunUntilPaused(1 << 14); err != nil {
		t.Fatalf("breakpoint lost in drain migration: %v", err)
	}

	// New sessions avoid the draining daemon.
	if _, err := c.Attach("counter"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Call(&wire.Request{Op: wire.OpFleetStat})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range st.Lines {
		if strings.HasPrefix(l, a) && !strings.Contains(l, "sessions=0") {
			t.Fatalf("draining daemon still hosts sessions: %q", l)
		}
	}

	// Unknown daemons are refused.
	if _, err := c.Call(&wire.Request{Op: wire.OpFleetDrain, Name: "nope:1", Enable: true}); !wire.IsCode(err, wire.CodeBadRequest) {
		t.Fatalf("drain of unknown daemon = %v, want CodeBadRequest", err)
	}
}

// TestFleetCountersStream opens a "counters" stream against the
// coordinator and expects fleet-level counter deltas to arrive on the
// credit-gated streaming path.
func TestFleetCountersStream(t *testing.T) {
	_, a := startDaemon(t, server.Config{})
	_, fa := startFleet(t, fleet.Config{Daemons: []string{a}})

	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.OpenStream(wire.StreamCounters, 0, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	s, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("no fleet counter frame mentioning admissions arrived")
		default:
		}
		ev, ok := st.Recv()
		if !ok {
			t.Fatal("counters stream closed early")
		}
		for _, name := range ev.Names {
			if name == "zfleet.admissions" {
				return // fleet-level counters flow down the stream
			}
		}
	}
}

// TestDaemonInjectorSeam sanity-checks the DialFor plumbing: a fleet
// whose only daemon link is frozen must refuse placement (typed, not a
// hang) and recover after heal.
func TestDaemonInjectorSeam(t *testing.T) {
	_, a := startDaemon(t, server.Config{})
	inj := faults.NewDaemonInjector()
	inj.SetDialTimeout(200 * time.Millisecond)
	_, fa := startFleet(t, fleet.Config{
		Daemons: []string{a},
		DialFor: func(string) func(string, string) (net.Conn, error) { return inj.Dial },
	})

	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Attach("counter"); err != nil {
		t.Fatal(err)
	}

	inj.Kill()
	// The daemon link is gone; once the fleet notices, attaches shed
	// rather than hang.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Attach("counter")
		if wire.IsCode(err, wire.CodeOverloaded) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("attach against dead fleet = %v, want CodeOverloaded", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	inj.Heal()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, err := c.Attach("counter"); err == nil {
			return // daemon requalified
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never requalified after heal")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetVersionHandshake is TestVersionHandshake against a zfleet
// coordinator: both answer the hello through the same wire helper, so a
// retired protocol version is refused the same way.
func TestFleetVersionHandshake(t *testing.T) {
	_, d := startDaemon(t, server.Config{})
	_, addr := startFleet(t, fleet.Config{Daemons: []string{d}})
	hello := func(ver int) *wire.Response {
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
	if r := hello(999); r.Err != nil || r.Version != wire.Version {
		t.Fatalf("newer client should be answered with %d, got %+v", wire.Version, r)
	}
	for _, ver := range []int{1, 2, wire.MinVersion - 1} {
		if r := hello(ver); r.Err == nil || r.Err.Code != wire.CodeVersion {
			t.Errorf("v%d hello answered with %+v, want %s", ver, r, wire.CodeVersion)
		}
	}
}

// refusingDaemon stands in for a zoomied whose session state outgrew the
// export cap. Served by the daemon's own serving layer, it answers every
// op, and each state export past the first `exports` with the daemon's
// too-large refusal. It counts the detaches it is sent.
func refusingDaemon(t *testing.T, exports int32) (string, *atomic.Int32) {
	t.Helper()
	var wg sync.WaitGroup
	var exported, detaches atomic.Int32
	hub := server.NewHub(server.Frontend{
		Name: "zoomied",
		Logf: func(string, ...any) {},
		Reg:  obs.NewRegistry(),
		Dispatch: func(c *server.Conn, req *wire.Request) {
			resp := &wire.Response{ID: req.ID}
			switch req.Op {
			case wire.OpStatus:
				resp.Stats = &wire.Stats{}
			case wire.OpAttach:
				resp.Session = 1
			case wire.OpDetach:
				detaches.Add(1)
			case wire.OpStateExport:
				if exported.Add(1) <= exports {
					resp.Blob = []byte("state")
				} else {
					resp.Err = wire.Errf(wire.CodeOp, "session state too large to export")
				}
			}
			c.Reply(resp)
		},
	}, &wg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hub.Serve(ln)
	t.Cleanup(func() {
		hub.Close(&wire.Event{Kind: wire.EvtShutdown})
		wg.Wait()
	})
	return ln.Addr().String(), &detaches
}

// TestFleetCountsFailedCheckpoints pins that a refused checkpoint
// refresh is not dropped silently: every failure counts in
// zfleet.checkpoints_failed, and the session's first is logged, once.
// A refused refresh is retried only after another CheckpointEvery
// journaled commands, not after every command.
func TestFleetCountsFailedCheckpoints(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	daemon, _ := refusingDaemon(t, 1)
	co, fa := startFleet(t, fleet.Config{
		Daemons:         []string{daemon},
		CheckpointEvery: 2,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	// The journal reaches CheckpointEvery at the second poke, and the
	// refused refresh tries again two pokes later, at the fourth.
	for i := 0; i < 5; i++ {
		if err := s.Poke("cnt", uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := co.Obs().Lookup("zfleet.checkpoints_failed").Load(); got != 2 {
		t.Errorf("zfleet.checkpoints_failed = %d, want 2", got)
	}
	if got := co.Obs().Lookup("zfleet.checkpoints").Load(); got != 1 {
		t.Errorf("zfleet.checkpoints = %d, want the attach's 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	var refusals []string
	for _, l := range logs {
		if strings.Contains(l, "refresh failed") {
			refusals = append(refusals, l)
		}
	}
	if len(refusals) != 1 || !strings.Contains(refusals[0], "too large to export") {
		t.Errorf("checkpoint refusals logged: %q, want the first one", refusals)
	}
}

// TestFleetAttachReleasesFailedCheckpoint pins that an attach whose first
// checkpoint fails detaches the daemon-side session it just attached, so
// that board is not held until the daemon's idle timeout.
func TestFleetAttachReleasesFailedCheckpoint(t *testing.T) {
	daemon, detaches := refusingDaemon(t, 0)
	_, fa := startFleet(t, fleet.Config{Daemons: []string{daemon}})
	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Attach("counter"); !wire.IsCode(err, wire.CodeOverloaded) {
		t.Fatalf("attach without a first checkpoint = %v, want CodeOverloaded", err)
	}
	if got := detaches.Load(); got != 1 {
		t.Fatalf("daemon saw %d detaches, want 1", got)
	}
}
