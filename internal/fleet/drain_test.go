package fleet_test

import (
	"strings"
	"testing"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/dbg"
	"zoomie/internal/fleet"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// registerBigState serves a counter logging into a 128K-word memory, with
// a keyframe every 4 cycles. Each keyframe holds every memory word, so
// the recorded history passes the 6 MiB export cap within ~200 cycles
// while the attach's first export is small.
func registerBigState(t *testing.T) string {
	t.Helper()
	const design = "drain-bigstate"
	server.Register(design, server.Entry{
		Describe: "16-bit counter logging into a 128K-word memory",
		Build: func() (*zoomie.Design, zoomie.DebugConfig) {
			m := zoomie.NewModule("bigstate")
			q := m.Output("q", 16)
			cnt := m.Reg("cnt", 16, "clk", 0)
			m.SetNext(cnt, zoomie.Add(zoomie.S(cnt), zoomie.C(1, 16)))
			tag := m.Reg("tag", 16, "clk", 0)
			m.SetNext(tag, zoomie.S(tag))
			m.Mem("log", 8, 1<<17).Write("clk", zoomie.S(cnt), zoomie.Slice(zoomie.S(cnt), 7, 0), zoomie.C(1, 1))
			m.Connect(q, zoomie.S(cnt))
			return zoomie.NewDesign("bigstate", m), zoomie.DebugConfig{
				Watches: []string{"q"},
				History: &zoomie.HistoryConfig{KeyframeEvery: 4},
			}
		},
	})
	t.Cleanup(func() { server.Unregister(design) })
	return design
}

// TestFleetDrainPastExportCap drains a session whose state the daemon
// refuses to export: the drain moves it from its last checkpoint and
// journal, as a failover would, and the cycle count, the registers the
// test wrote and the armed breakpoint arrive unchanged.
func TestFleetDrainPastExportCap(t *testing.T) {
	design := registerBigState(t)
	_, a := startDaemon(t, server.Config{})
	_, b := startDaemon(t, server.Config{})
	co, fa := startFleet(t, fleet.Config{Daemons: []string{a, b}})

	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Attach(design)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetValueBreakpoint("q", 900, dbg.BreakAny); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("tag", 0xbeef); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Step(50); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Poke("cnt", 700); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.StateExport(t.Context()); err == nil || !strings.Contains(err.Error(), "too large to export") {
		t.Fatalf("export before the drain: %v, want the too-large refusal", err)
	}
	_, wantCycles, _, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}

	// The session landed on the first-configured daemon. Drain it.
	resp, err := c.Call(&wire.Request{Op: wire.OpFleetDrain, Name: a, Enable: true})
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := strings.Join(resp.Lines, "\n"); !strings.Contains(got, "session migrated") {
		t.Fatalf("drain did not migrate the session:\n%s", got)
	}
	// The refresh at the eighth journaled command was refused, and so was
	// the drain's fresh checkpoint, so the drain replayed all nine
	// journaled commands onto the attach's checkpoint.
	for name, want := range map[string]uint64{"zfleet.drains": 1, "zfleet.checkpoints_failed": 2, "zfleet.journal_replays": 9} {
		if got := co.Obs().Lookup(name).Load(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	_, gotCycles, _, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if gotCycles != wantCycles {
		t.Errorf("cycles after drain = %d, want %d", gotCycles, wantCycles)
	}
	for name, want := range map[string]uint64{"tag": 0xbeef, "cnt": 700} {
		if got, err := s.Peek(name); err != nil || got != want {
			t.Errorf("%s after drain = %d (%v), want %d", name, got, err, want)
		}
	}
	// The breakpoint traveled armed: resumed, the design pauses at q == 900.
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunUntilPaused(1 << 12); err != nil {
		t.Fatalf("breakpoint lost in the drain: %v", err)
	}
	if got, err := s.Peek("cnt"); err != nil || got != 900 {
		t.Fatalf("cnt at the breakpoint = %d (%v), want 900", got, err)
	}
}

// TestFleetDrainDeterministic is TestFleetFailoverDeterministic with a
// drain for the kill: 2 daemons, 8 concurrent sessions, the first daemon
// drained between the two script phases, and every session's transcript
// byte-identical to an undisturbed control run.
func TestFleetDrainDeterministic(t *testing.T) {
	const nSessions = 8
	fleetOf := func() (string, string) {
		_, a := startDaemon(t, server.Config{PoolSize: 12})
		_, b := startDaemon(t, server.Config{PoolSize: 12})
		_, fa := startFleet(t, fleet.Config{Daemons: []string{a, b}, MaxPerDaemon: 16, CheckpointEvery: 2})
		return a, fa
	}
	_, fa := fleetOf()
	control := runFleetScript(t, fa, nSessions, nil)

	a, fa := fleetOf()
	drained := runFleetScript(t, fa, nSessions, func() {
		c, err := client.Dial(fa)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		resp, err := c.Call(&wire.Request{Op: wire.OpFleetDrain, Name: a, Enable: true})
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
		if got := strings.Count(strings.Join(resp.Lines, "\n"), "session migrated"); got != nSessions/2 {
			t.Fatalf("drain migrated %d sessions, want %d:\n%s", got, nSessions/2, strings.Join(resp.Lines, "\n"))
		}
	})

	if len(drained) != len(control) {
		t.Fatalf("transcript length %d != control %d\ndrained:\n%s\ncontrol:\n%s",
			len(drained), len(control), joinLines(drained), joinLines(control))
	}
	for i := range control {
		if drained[i] != control[i] {
			t.Errorf("transcript line %d diverged:\n  drained: %q\n  control: %q", i, drained[i], control[i])
		}
	}
}
