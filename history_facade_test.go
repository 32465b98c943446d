package zoomie_test

import (
	"errors"
	"strings"
	"testing"

	"zoomie"
	"zoomie/internal/bitstream"
	"zoomie/internal/history"
)

// buildHistDut is a counter with a scratch memory and a low-nibble
// output suitable for periodically-firing value breakpoints.
func buildHistDut() *zoomie.Design {
	m := zoomie.NewModule("histdut")
	q := m.Output("q", 16)
	lo := m.Output("lo", 4)
	cnt := m.Reg("cnt", 16, "clk", 0)
	m.SetNext(cnt, zoomie.Add(zoomie.S(cnt), zoomie.C(1, 16)))
	m.Connect(q, zoomie.S(cnt))
	m.Connect(lo, zoomie.Slice(zoomie.S(cnt), 3, 0))
	mem := m.Mem("scratch", 16, 8)
	mem.Write("clk", zoomie.Slice(zoomie.S(cnt), 2, 0), zoomie.S(cnt), zoomie.C(1, 1))
	return zoomie.NewDesign("histdut", m)
}

func histSession(t *testing.T, cfg zoomie.DebugConfig) *zoomie.Session {
	t.Helper()
	sess, err := zoomie.Debug(buildHistDut(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

// TestSeekBitIdenticalToFreshRun is the core acceptance check: seeking
// back to cycle C reconstructs register and memory state bit-identical
// to a fresh run paused at C.
func TestSeekBitIdenticalToFreshRun(t *testing.T) {
	// Fresh reference run, paused at C.
	ref := histSession(t, zoomie.DebugConfig{})
	if err := ref.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Step(40); err != nil {
		t.Fatal(err)
	}
	c, err := ref.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot("dut")
	if err != nil {
		t.Fatal(err)
	}

	// Recorded run: same prefix, then 40 cycles further, then seek back.
	sess := histSession(t, zoomie.DebugConfig{})
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(40); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(40); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Seek(c); err != nil {
		t.Fatal(err)
	}
	if cyc, _ := sess.Cycles(); cyc != c {
		t.Errorf("cycle after seek = %d, want %d", cyc, c)
	}
	got, err := sess.Snapshot("dut")
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want.Regs {
		if got.Regs[name] != w {
			t.Errorf("reg %s = %#x, want %#x", name, got.Regs[name], w)
		}
	}
	for name, ws := range want.Mems {
		gs := got.Mems[name]
		for i := range ws {
			if gs[i] != ws[i] {
				t.Errorf("mem %s[%d] = %#x, want %#x", name, i, gs[i], ws[i])
			}
		}
	}
}

// TestReverseContinueMatchesForward arms a periodically-firing value
// breakpoint, collects two forward trigger stops, then requires
// reverse-continue from the second to land exactly on the first.
func TestReverseContinueMatchesForward(t *testing.T) {
	sess := histSession(t, zoomie.DebugConfig{Watches: []string{"lo"}})
	if err := sess.SetValueBreakpoint("lo", 5, zoomie.BreakAny); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunUntilPaused(1 << 12); err != nil {
		t.Fatal(err)
	}
	first, _ := sess.Cycles()
	if err := sess.Resume(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunUntilPaused(1 << 12); err != nil {
		t.Fatal(err)
	}
	second, _ := sess.Cycles()
	if second <= first {
		t.Fatalf("forward stops not increasing: %d then %d", first, second)
	}

	cyc, found, err := sess.ReverseContinue()
	if err != nil {
		t.Fatal(err)
	}
	if !found || cyc != first {
		t.Fatalf("reverse-continue stopped at %d (found=%v), forward run reported %d", cyc, found, first)
	}
	if now, _ := sess.Cycles(); now != first {
		t.Errorf("design at cycle %d after reverse-continue, want %d", now, first)
	}
	if v, _ := sess.Peek("cnt"); v&0xf != 5 {
		t.Errorf("cnt = %d at reverse-continue stop, want low nibble 5", v)
	}
}

// TestSavestateLoadAndTimelines captures a savestate, diverges, loads it
// back (cycle counter stays monotonic) and forks a branch timeline.
func TestSavestateLoadAndTimelines(t *testing.T) {
	sess := histSession(t, zoomie.DebugConfig{})
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(30); err != nil {
		t.Fatal(err)
	}
	markCnt, _ := sess.Peek("cnt")
	if _, _, _, err := sess.SaveState("mark"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(30); err != nil {
		t.Fatal(err)
	}
	before, _ := sess.Cycles()
	cyc, err := sess.LoadState("mark")
	if err != nil {
		t.Fatal(err)
	}
	if cyc != before {
		t.Errorf("cycle after loadstate = %d, want %d (monotonic)", cyc, before)
	}
	if v, _ := sess.Peek("cnt"); v != markCnt {
		t.Errorf("cnt after loadstate = %d, want %d", v, markCnt)
	}
	if _, err := sess.LoadState("nope"); err == nil {
		t.Error("loading unknown savestate succeeded")
	}

	// Fork: seek back, poke, continue.
	target := cyc - 10
	if _, err := sess.Seek(target); err != nil {
		t.Fatal(err)
	}
	if err := sess.Poke("cnt", 999); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(5); err != nil {
		t.Fatal(err)
	}
	lines := sess.TimelineLines()
	if len(lines) < 2 {
		t.Fatalf("expected a forked timeline, got %v", lines)
	}
	if v, _ := sess.Peek("cnt"); v != 1004 {
		t.Errorf("cnt on forked timeline = %d, want 1004", v)
	}
}

// TestSeekBeforeHorizon shrinks the ring and requires the typed
// sentinel once the target is evicted.
func TestSeekBeforeHorizon(t *testing.T) {
	sess := histSession(t, zoomie.DebugConfig{
		History: &zoomie.HistoryConfig{KeyframeEvery: 4, MaxKeyframes: 2},
	})
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(100); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Seek(1); !errors.Is(err, zoomie.ErrHistoryHorizon) {
		t.Errorf("pre-horizon seek error = %v, want ErrHistoryHorizon", err)
	}
	if _, _, err := sess.Rewind(1 << 30); !errors.Is(err, zoomie.ErrHistoryHorizon) {
		t.Errorf("over-deep rewind error = %v, want ErrHistoryHorizon", err)
	}
}

// TestHistoryDisabled checks the opt-out knob.
func TestHistoryDisabled(t *testing.T) {
	sess := histSession(t, zoomie.DebugConfig{
		History: &zoomie.HistoryConfig{Disable: true},
	})
	if sess.HistoryEnabled() {
		t.Error("history enabled despite Disable")
	}
	if _, err := sess.Seek(0); err == nil {
		t.Error("seek succeeded with history disabled")
	}
	if got := sess.HistoryStatusLines(); len(got) != 1 || got[0] != "history: disabled" {
		t.Errorf("status lines = %v", got)
	}
}

// freshAt snapshots the user design of a fresh, unrecorded run paused at
// the given cycle.
func freshAt(t *testing.T, cycle uint64) *zoomie.DebugSnapshot {
	t.Helper()
	ref := histSession(t, zoomie.DebugConfig{History: &zoomie.HistoryConfig{Disable: true}})
	if err := ref.Pause(); err != nil {
		t.Fatal(err)
	}
	now, err := ref.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	if cycle > now {
		if err := ref.Step(int(cycle - now)); err != nil {
			t.Fatal(err)
		}
	}
	if c, _ := ref.Cycles(); c != cycle {
		t.Fatalf("fresh run paused at cycle %d, want %d", c, cycle)
	}
	snap, err := ref.Snapshot("dut")
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// sameDesignState requires the session's user design to hold exactly the
// registers and memory words of want, at the given cycle.
func sameDesignState(t *testing.T, sess *zoomie.Session, want *zoomie.DebugSnapshot, cycle uint64) {
	t.Helper()
	if c, _ := sess.Cycles(); c != cycle {
		t.Errorf("design at cycle %d, want %d", c, cycle)
	}
	got, err := sess.Snapshot("dut")
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range want.Regs {
		if got.Regs[name] != w {
			t.Errorf("reg %s = %#x, want %#x", name, got.Regs[name], w)
		}
	}
	for name, ws := range want.Mems {
		for i, w := range ws {
			if g := got.Mems[name][i]; g != w {
				t.Errorf("mem %s[%d] = %#x, want %#x", name, i, g, w)
			}
		}
	}
}

// frameLog is a configuration backend that records the address of every
// frame written through it.
type frameLog struct {
	bitstream.Backend
	written [][2]int
}

func (l *frameLog) WriteFrame(slr, frame int, data []uint32) error {
	l.written = append(l.written, [2]int{slr, frame})
	return l.Backend.WriteFrame(slr, frame, data)
}

// TestSeekToCursorWritesNoDesignFrame seeks to the cycle the design is
// already paused at. Every user-design value already holds, so the delta
// restore must leave every frame of user-design state unwritten.
func TestSeekToCursorWritesNoDesignFrame(t *testing.T) {
	// A fault injector with an empty profile is the seam the frame log
	// wraps: it is the backend the session's configuration chain drives.
	inj := zoomie.NewFaultInjector(zoomie.FaultProfile{})
	sess := histSession(t, zoomie.DebugConfig{Faults: inj})
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(40); err != nil {
		t.Fatal(err)
	}
	cyc, err := sess.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	log := &frameLog{Backend: inj}
	sess.Cable.Chain = bitstream.NewChain(log, bitstream.DefaultCostModel())
	if _, err := sess.Seek(cyc); err != nil {
		t.Fatal(err)
	}

	names := map[string]bool{}
	for _, r := range sess.Image.Map.Regs {
		if strings.HasPrefix(r.Name, "dut.") {
			names[r.Name] = true
		}
	}
	for _, m := range sess.Image.Map.Mems {
		if strings.HasPrefix(m.Name, "dut.") {
			names[m.Name] = true
		}
	}
	design := map[[2]int]bool{}
	for slr, fs := range sess.Image.Map.FramesTouched(names) {
		for _, f := range fs {
			design[[2]int{slr, f}] = true
		}
	}
	for _, w := range log.written {
		if design[w] {
			t.Errorf("seek to the current cycle wrote user-design frame %v", w)
		}
	}
	if c, _ := sess.Cycles(); c != cyc {
		t.Errorf("cycle after seek = %d, want %d", c, cyc)
	}
}

// TestSeekAfterReverseContinueMatchesFreshRun runs seek, reverse-continue,
// seek. Reverse-continue's probes free-run the board with recording
// suspended, so the final seek is only bit-identical to a fresh run if the
// live mirror tracked those unrecorded ticks.
func TestSeekAfterReverseContinueMatchesFreshRun(t *testing.T) {
	sess := histSession(t, zoomie.DebugConfig{Watches: []string{"lo"}})
	if err := sess.SetValueBreakpoint("lo", 5, zoomie.BreakAny); err != nil {
		t.Fatal(err)
	}
	var stops []uint64
	for i := 0; i < 3; i++ {
		if _, err := sess.RunUntilPaused(1 << 12); err != nil {
			t.Fatal(err)
		}
		c, _ := sess.Cycles()
		stops = append(stops, c)
		if err := sess.Resume(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Seek(stops[2] - 3); err != nil {
		t.Fatal(err)
	}
	cyc, found, err := sess.ReverseContinue()
	if err != nil {
		t.Fatal(err)
	}
	if !found || cyc != stops[1] {
		t.Fatalf("reverse-continue stopped at %d (found=%v), want %d", cyc, found, stops[1])
	}
	target := stops[2] - 1
	if _, err := sess.Seek(target); err != nil {
		t.Fatal(err)
	}
	sameDesignState(t, sess, freshAt(t, target), target)
}

// TestSeekOverFlakyCableMatchesFreshRun seeks over a guarded cable that
// flips 1% of the words it moves: the delta restore, its verify-after-write
// and the semantic re-verification must still land bit-identical.
func TestSeekOverFlakyCableMatchesFreshRun(t *testing.T) {
	p, err := zoomie.ParseFaultProfile("flip=0.01,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	sess := histSession(t, zoomie.DebugConfig{Faults: zoomie.NewFaultInjector(p)})
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(40); err != nil {
		t.Fatal(err)
	}
	c, _ := sess.Cycles()
	if err := sess.Step(40); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Seek(c); err != nil {
		t.Fatal(err)
	}
	sameDesignState(t, sess, freshAt(t, c), c)
}

// TestHistoryMirrorAfterEveryOp drives a time-travel script through the
// facade — steps, seeks, a forking poke, rewind, savestates,
// reverse-continue, an explicit restore, and a decode + adopt onto a
// second session — and requires the history engine's live mirror to
// equal the board after every op.
func TestHistoryMirrorAfterEveryOp(t *testing.T) {
	sess := histSession(t, zoomie.DebugConfig{Watches: []string{"lo"}})
	check := func(s *zoomie.Session, after string) {
		t.Helper()
		if err := s.CheckHistoryMirror(); err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sess.Pause())
	check(sess, "pause")
	must(sess.Step(30))
	check(sess, "step")
	_, err := sess.Seek(12)
	must(err)
	check(sess, "seek")
	must(sess.Poke("cnt", 999))
	check(sess, "forking poke")
	must(sess.Step(10))
	check(sess, "step on the fork")
	_, _, err = sess.Rewind(4)
	must(err)
	check(sess, "rewind")
	_, _, _, err = sess.SaveState("mark")
	must(err)
	must(sess.Step(9))
	_, err = sess.LoadState("mark")
	must(err)
	check(sess, "loadstate")
	must(sess.SetValueBreakpoint("lo", 5, zoomie.BreakAny))
	must(sess.Step(20))
	_, _, err = sess.ReverseContinue()
	must(err)
	check(sess, "reverse-continue")
	snap, err := sess.Snapshot("")
	must(err)
	must(sess.Step(3))
	must(sess.Restore(snap))
	check(sess, "restore")

	h, err := history.Decode(sess.EncodeHistory())
	must(err)
	other := histSession(t, zoomie.DebugConfig{Watches: []string{"lo"}})
	must(other.AdoptHistory(h))
	check(other, "adopt")
	must(other.Restore(snap))
	check(other, "restore on the adopting session")
	must(other.Step(2))
	_, err = other.Seek(12)
	must(err)
	check(other, "seek on the adopting session")
}
