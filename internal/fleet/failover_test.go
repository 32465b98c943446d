package fleet_test

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/dbg"
	"zoomie/internal/faults"
	"zoomie/internal/fleet"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// injectedFleet stands up n daemons, each behind its own DaemonInjector,
// and a coordinator over them. injs[i] controls the link to daemon i.
func injectedFleet(t *testing.T, n int, fcfg fleet.Config) (*fleet.Coordinator, string, []*faults.DaemonInjector) {
	t.Helper()
	injs := make([]*faults.DaemonInjector, n)
	byAddr := make(map[string]*faults.DaemonInjector)
	for i := 0; i < n; i++ {
		_, addr := startDaemon(t, server.Config{PoolSize: 12})
		injs[i] = faults.NewDaemonInjector()
		injs[i].SetDialTimeout(300 * time.Millisecond)
		byAddr[addr] = injs[i]
		fcfg.Daemons = append(fcfg.Daemons, addr)
	}
	fcfg.DialFor = func(addr string) func(string, string) (net.Conn, error) {
		return byAddr[addr].Dial
	}
	co, fa := startFleet(t, fcfg)
	return co, fa, injs
}

// TestFleetFailoverKill is the headline scenario: a session's home
// daemon is killed mid-script and the coordinator rebuilds it on the
// surviving daemon — breakpoints, pause state, and time-travel history
// intact — with nothing visible to the client but a session_migrated
// event.
func TestFleetFailoverKill(t *testing.T) {
	_, fa, injs := injectedFleet(t, 2, fleet.Config{CheckpointEvery: 2})

	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SubscribeAll(); err != nil {
		t.Fatal(err)
	}

	s, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	// Pre-kill script: arm a breakpoint, accumulate state and history.
	if err := s.SetValueBreakpoint("q", 500, dbg.BreakAny); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(40); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("cnt", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(13); err != nil {
		t.Fatal(err)
	}
	preCnt, err := s.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	_, preCycles, _, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}

	// Both daemons were empty, so placement picked daemon 0. Kill it.
	injs[0].Kill()

	// The very next command rides the failover: the actor notices the
	// dead link (or the heartbeat kicks it first), restores the
	// checkpoint on daemon 1, replays the journal, and re-executes this
	// op — the client just sees a slightly slow call.
	gotCnt, err := s.Peek("cnt")
	if err != nil {
		t.Fatalf("first command after kill: %v", err)
	}
	if gotCnt != preCnt {
		t.Fatalf("cnt after failover = %d, want %d", gotCnt, preCnt)
	}
	_, gotCycles, _, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if gotCycles != preCycles {
		t.Fatalf("cycles after failover = %d, want %d", gotCycles, preCycles)
	}

	// The armed breakpoint traveled.
	if _, err := s.RunUntilPaused(1 << 14); err != nil {
		t.Fatalf("breakpoint lost in failover: %v", err)
	}

	// Pre-kill history traveled: seek into cycles recorded on daemon 0.
	if _, err := s.HistSeek(preCycles - 10); err != nil {
		t.Fatalf("seek into pre-failover history: %v", err)
	}
	at, err := s.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	if at != preCycles-10 {
		t.Fatalf("post-failover seek landed at %d, want %d", at, preCycles-10)
	}

	// The one visible artifact: a session_migrated event.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-c.Events():
			if ev.Kind == wire.EvtMigrated && ev.Session != 0 {
				return
			}
		case <-deadline:
			t.Fatal("no session_migrated event after failover")
		}
	}
}

// TestFleetFailoverAfterFailedUntil pins that zfleet journals a mutating
// command the daemon ran even when it failed: `until` with no trigger
// armed runs its ticks and then reports that no trigger fired. Killing
// the home daemon after it must fail over to the cycle the design had
// reached, which only a replay of the until reproduces.
func TestFleetFailoverAfterFailedUntil(t *testing.T) {
	script := func(kill bool) uint64 {
		_, fa, injs := injectedFleet(t, 2, fleet.Config{CheckpointEvery: 100})
		c, err := client.Dial(fa)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		s, err := c.Attach("counter")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Step(10); err != nil {
			t.Fatal(err)
		}
		if err := s.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunUntilPaused(50); err == nil {
			t.Fatal("until 50 with no trigger armed succeeded")
		}
		if kill {
			injs[0].Kill()
		}
		_, cycles, _, err := s.Status()
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	want := script(false)
	if got := script(true); got != want {
		t.Fatalf("after a failed until and a failover the design is at cycle %d, want %d", got, want)
	}
}

// TestFleetFailoverIdleKick verifies the heartbeat path: a session that
// is sitting idle when its daemon dies is failed over proactively by
// the lease loop, not lazily at its next command.
func TestFleetFailoverIdleKick(t *testing.T) {
	co, fa, injs := injectedFleet(t, 2, fleet.Config{})

	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(25); err != nil {
		t.Fatal(err)
	}

	injs[0].Kill()

	// Without issuing any command, the failover counter must tick as the
	// heartbeat declares the daemon dead and kicks the idle actor.
	deadline := time.Now().Add(10 * time.Second)
	for co.Obs().Counter("zfleet.failovers").Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session was never proactively failed over")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// And the session still works.
	if cnt, err := s.Peek("cnt"); err != nil || cnt != 25 {
		t.Fatalf("idle-failover session: cnt=%d err=%v, want 25", cnt, err)
	}
}

// transcript runs a fixed debugging script and records every observable
// result as text. Two runs of the same script against the same design
// must produce byte-identical transcripts, failover or not.
type transcript struct {
	mu    sync.Mutex
	lines []string
}

func (tr *transcript) addf(format string, args ...interface{}) {
	tr.mu.Lock()
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
	tr.mu.Unlock()
}

// scriptPhase1 is the pre-kill half of the deterministic script; idx
// varies the values so every session has a distinct state.
func scriptPhase1(t *testing.T, s *client.Session, idx int, tr *transcript) {
	t.Helper()
	if err := s.SetValueBreakpoint("q", uint64(400+10*idx), dbg.BreakAny); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(20 + idx); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("cnt", uint64(idx)); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(9); err != nil {
		t.Fatal(err)
	}
	cnt, err := s.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	_, cycles, _, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	tr.addf("s%d phase1 cnt=%d cycles=%d", idx, cnt, cycles)
}

// scriptPhase2 is the post-kill half: run to the breakpoint, inspect,
// time-travel into phase-1 history, and land back at the breakpoint.
func scriptPhase2(t *testing.T, s *client.Session, idx int, tr *transcript) {
	t.Helper()
	ran, err := s.RunUntilPaused(1 << 14)
	if err != nil {
		t.Fatal(err)
	}
	cnt, err := s.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	_, cycles, _, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	tr.addf("s%d phase2 ran=%d cnt=%d cycles=%d", idx, ran, cnt, cycles)

	if _, err := s.HistSeek(10); err != nil {
		t.Fatal(err)
	}
	early, err := s.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.HistSeek(cycles); err != nil {
		t.Fatal(err)
	}
	back, err := s.Peek("cnt")
	if err != nil {
		t.Fatal(err)
	}
	tr.addf("s%d travel early=%d back=%d", idx, early, back)
}

// runFleetScript executes the full script over nSessions concurrent
// sessions against the fleet at fa. Between phases, kill (if non-nil)
// runs once while every session is quiescent — "mid-script" for all of
// them. Returns the sorted-stable transcript (sessions are indexed, and
// each session's lines are appended in program order; concurrent
// sessions interleave, so the caller compares per-session slices).
func runFleetScript(t *testing.T, fa string, nSessions int, kill func()) []string {
	t.Helper()
	c, err := client.Dial(fa)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sessions := make([]*client.Session, nSessions)
	for i := range sessions {
		s, err := c.Attach("counter")
		if err != nil {
			t.Fatalf("attach %d: %v", i, err)
		}
		sessions[i] = s
	}

	trs := make([]*transcript, nSessions)
	for i := range trs {
		trs[i] = &transcript{}
	}

	var wg sync.WaitGroup
	phase := func(fn func(*testing.T, *client.Session, int, *transcript)) {
		for i := range sessions {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fn(t, sessions[i], i, trs[i])
			}(i)
		}
		wg.Wait()
	}

	phase(scriptPhase1)
	if kill != nil {
		kill()
	}
	phase(scriptPhase2)

	var out []string
	for _, tr := range trs {
		out = append(out, tr.lines...)
	}
	return out
}

// TestFleetFailoverDeterministic is the acceptance scenario: 2 daemons,
// 8 concurrent sessions, a seeded RNG chooses which daemon to kill
// mid-script, and every session's observable output must be
// byte-identical to an undisturbed control run.
func TestFleetFailoverDeterministic(t *testing.T) {
	const nSessions = 8

	// Control run: same fleet shape, no faults.
	var control []string
	{
		cfg := fleet.Config{MaxPerDaemon: 16, CheckpointEvery: 2}
		_, a := startDaemon(t, server.Config{PoolSize: 12})
		_, b := startDaemon(t, server.Config{PoolSize: 12})
		cfg.Daemons = []string{a, b}
		_, fa := startFleet(t, cfg)
		control = runFleetScript(t, fa, nSessions, nil)
	}

	// Chaos run: seeded choice of victim daemon, killed between phases —
	// mid-script for all 8 sessions, 4 of which are homed on the victim.
	_, fa, injs := injectedFleet(t, 2, fleet.Config{MaxPerDaemon: 16, CheckpointEvery: 2})
	victim := rand.New(rand.NewSource(0x5eed)).Intn(2)
	chaos := runFleetScript(t, fa, nSessions, func() {
		injs[victim].Kill()
	})

	if len(chaos) != len(control) {
		t.Fatalf("transcript length %d != control %d\nchaos:\n%s\ncontrol:\n%s",
			len(chaos), len(control), joinLines(chaos), joinLines(control))
	}
	for i := range control {
		if chaos[i] != control[i] {
			t.Errorf("transcript line %d diverged:\n  chaos:   %q\n  control: %q",
				i, chaos[i], control[i])
		}
	}
}

func joinLines(ls []string) string {
	out := ""
	for _, l := range ls {
		out += l + "\n"
	}
	return out
}
