package dbg

import (
	"strings"
	"testing"

	"zoomie/internal/core"
	"zoomie/internal/fpga"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
	"zoomie/internal/toolchain"
	"zoomie/internal/workloads"
)

// session instruments a design, compiles it for a U200 and attaches a
// debugger — the full stack end to end.
func session(t *testing.T, d *rtl.Design, cfg core.Config, userClock string) *Debugger {
	t.Helper()
	wrapped, meta, err := core.Instrument(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := toolchain.Compile(wrapped, toolchain.Options{
		Clocks: []sim.ClockSpec{
			{Name: userClock, Period: 1},
			{Name: core.DebugClock, Period: 1},
		},
		Gates: meta.Gates(),
	})
	if err != nil {
		t.Fatal(err)
	}
	board := fpga.NewBoard(res.Options.Device)
	dbg, err := Attach(board, res.Image, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.Start(); err != nil {
		t.Fatal(err)
	}
	return dbg
}

// counterDesign: a counter with an enable input wired high internally.
func counterDesign() *rtl.Design {
	m := rtl.NewModule("counter_top")
	q := m.Output("q", 16)
	cnt := m.Reg("cnt", 16, "clk", 0)
	m.SetNext(cnt, rtl.Add(rtl.S(cnt), rtl.C(1, 16)))
	m.Connect(q, rtl.S(cnt))
	return rtl.NewDesign("counter_top", m)
}

func TestPeekPokeThroughFrames(t *testing.T) {
	d := session(t, counterDesign(), core.Config{Watches: []string{"q"}, UserClock: "clk"}, "clk")
	d.Run(10)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	v, err := d.Peek("cnt") // bare name resolves under dut.
	if err != nil {
		t.Fatal(err)
	}
	if v == 0 {
		t.Fatal("counter never ran")
	}
	if err := d.Poke("cnt", 5000); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.Peek("dut.cnt"); got != 5000 {
		t.Errorf("poked value reads back %d, want 5000", got)
	}
	if err := d.Resume(); err != nil {
		t.Fatal(err)
	}
	d.Run(7)
	if got, _ := d.Peek("cnt"); got != 5007 {
		t.Errorf("cnt = %d after resume, want 5007", got)
	}
}

func TestPeekErrors(t *testing.T) {
	d := session(t, counterDesign(), core.Config{UserClock: "clk"}, "clk")
	if _, err := d.Peek("nosuch"); err == nil {
		t.Error("unknown name accepted")
	}
	if err := d.Poke("nosuch", 1); err == nil {
		t.Error("poke of unknown name accepted")
	}
}

func TestHostPauseFreezesDesign(t *testing.T) {
	d := session(t, counterDesign(), core.Config{UserClock: "clk"}, "clk")
	d.Run(10)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	paused, err := d.Paused()
	if err != nil || !paused {
		t.Fatalf("not paused: %v %v", paused, err)
	}
	at, _ := d.Peek("cnt")
	d.Run(100)
	if v, _ := d.Peek("cnt"); v != at {
		t.Errorf("design ran while paused: %d -> %d", at, v)
	}
}

func TestStepExactCycles(t *testing.T) {
	d := session(t, counterDesign(), core.Config{UserClock: "clk"}, "clk")
	d.Run(5)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	start, _ := d.Peek("cnt")
	if err := d.Step(13); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Peek("cnt"); v != start+13 {
		t.Errorf("stepped to %d, want %d", v, start+13)
	}
	if err := d.Step(1); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Peek("cnt"); v != start+14 {
		t.Errorf("single step landed on %d, want %d", v, start+14)
	}
	if err := d.Step(0); err == nil {
		t.Error("zero-cycle step accepted")
	}
}

func TestValueBreakpointOnTheFly(t *testing.T) {
	d := session(t, counterDesign(), core.Config{Watches: []string{"q"}, UserClock: "clk"}, "clk")
	if err := d.SetValueBreakpoint("q", 123, BreakAny); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunUntilPaused(4096); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Peek("cnt"); v != 123 {
		t.Errorf("paused at cnt=%d, want exactly 123", v)
	}
	// Re-arm for a later value without any recompilation.
	if err := d.ClearBreakpoints(); err != nil {
		t.Fatal(err)
	}
	if err := d.SetValueBreakpoint("q", 500, BreakAny); err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunUntilPaused(4096); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Peek("cnt"); v != 500 {
		t.Errorf("second breakpoint paused at %d, want 500", v)
	}
}

func TestBreakpointErrors(t *testing.T) {
	d := session(t, counterDesign(), core.Config{Watches: []string{"q"}, UserClock: "clk"}, "clk")
	if err := d.SetValueBreakpoint("unwatched", 1, BreakAny); err == nil {
		t.Error("unwatched signal accepted")
	}
	if err := d.EnableAssertion("nosuch", true); err == nil {
		t.Error("unknown assertion accepted")
	}
	if err := d.SetValueBreakpoint("q", 1, BreakMode(9)); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestCyclesCounter(t *testing.T) {
	d := session(t, counterDesign(), core.Config{UserClock: "clk"}, "clk")
	d.Run(42)
	d.Pause()
	c, err := d.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	if c != 42 && c != 43 { // the pause itself may land one cycle later
		t.Errorf("cycles = %d, want 42 or 43", c)
	}
}

func TestSnapshotRestoreReplay(t *testing.T) {
	d := session(t, counterDesign(), core.Config{UserClock: "clk"}, "clk")
	d.Run(100)
	d.Pause()
	snap, err := d.Snapshot("dut")
	if err != nil {
		t.Fatal(err)
	}
	at := snap.Regs["dut.cnt"]
	if at == 0 {
		t.Fatal("snapshot missed counter state")
	}

	// Keep running, then rewind.
	d.Resume()
	d.Run(500)
	d.Pause()
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Peek("cnt"); v != at {
		t.Errorf("restored cnt = %d, want %d", v, at)
	}
	// Replay is deterministic.
	d.Resume()
	d.Run(10)
	if v, _ := d.Peek("cnt"); v != at+10 {
		t.Errorf("replay diverged: %d, want %d", v, at+10)
	}
}

// TestRestoreWritesOnlyChangedFrames pins the write-back rule every
// restore follows: a snapshot that already equals the board writes zero
// frames, and after one register changes only that register's frame is
// written back. A restore reads every frame the snapshot touches that the
// debugger does not know: all of them for a debugger newly attached to
// the board, none right after the snapshot read them.
func TestRestoreWritesOnlyChangedFrames(t *testing.T) {
	d := session(t, counterDesign(), core.Config{UserClock: "clk"}, "clk")
	d.Run(50)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	nAll := 0
	for _, fs := range d.Image.Map.FramesTouched(nil) {
		nAll += len(fs)
	}
	restore := func(d *Debugger, name string, wantRead, wantWritten int) {
		t.Helper()
		stats := &d.Cable.Chain.Stats
		r0, w0, rb0 := stats.FramesRead, stats.FramesWritten, d.Cable.Stats().Readbacks
		if err := d.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if got := stats.FramesRead - r0; got != wantRead {
			t.Errorf("%s: restore read %d frames, want %d", name, got, wantRead)
		}
		if got := d.Cable.Stats().Readbacks - rb0; wantRead == 0 && got != 0 {
			t.Errorf("%s: restore issued %d readbacks, want 0", name, got)
		}
		if got := stats.FramesWritten - w0; got != wantWritten {
			t.Errorf("%s: restore wrote %d frames, want %d", name, got, wantWritten)
		}
	}
	restore(d, "known frames, board's own state", 0, 0)
	fresh, err := Attach(d.Cable.Board, d.Image, d.Meta)
	if err != nil {
		t.Fatal(err)
	}
	restore(fresh, "unknown frames, board's own state", nAll, 0)

	if err := d.Poke("cnt", 7); err != nil {
		t.Fatal(err)
	}
	restore(d, "known frames, after one poke", 0, 1)
	if v, _ := d.Peek("cnt"); v != snap.Regs["dut.cnt"] {
		t.Errorf("restored cnt = %d, want %d", v, snap.Regs["dut.cnt"])
	}
}

func TestSnapshotUnknownScope(t *testing.T) {
	d := session(t, counterDesign(), core.Config{UserClock: "clk"}, "clk")
	if _, err := d.Snapshot("bogus.scope"); err == nil {
		t.Error("snapshot of unknown scope accepted")
	}
	if err := d.Restore(&Snapshot{Regs: map[string]uint64{"no": 1}}); err == nil {
		t.Error("restore of foreign snapshot accepted")
	}
}

func TestInspectListsState(t *testing.T) {
	d := session(t, counterDesign(), core.Config{UserClock: "clk"}, "clk")
	d.Run(3)
	lines, err := d.Inspect("dut")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range lines {
		if strings.HasPrefix(l, "dut.cnt = ") {
			found = true
		}
	}
	if !found {
		t.Errorf("inspect output missing dut.cnt: %v", lines)
	}
}

func TestReadbackOptimizationRatio(t *testing.T) {
	// Table 3's mechanism at test scale: scanning only the MUT's frames
	// beats the whole-SLR scan by orders of magnitude.
	d := session(t, counterDesign(), core.Config{UserClock: "clk"}, "clk")
	d.Run(5)
	d.Pause()
	slr := 0
	// Find the SLR that actually hosts the design's state.
	for s := range d.Cable.Board.Device.SLRs {
		if _, err := d.OptimizedReadbackSLR(s, "dut"); err == nil {
			slr = s
			break
		}
	}
	opt, err := d.OptimizedReadbackSLR(slr, "dut")
	if err != nil {
		t.Fatal(err)
	}
	naive, err := d.NaiveReadbackSLR(slr)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(naive) / float64(opt); ratio < 50 {
		t.Errorf("naive/optimized = %.0fx, want large", ratio)
	}
}

// End-to-end case study 1: find the Cohort TLB bug with breakpoints and
// full-visibility readback instead of four ILA recompiles.
func TestCohortBugHuntEndToEnd(t *testing.T) {
	d := session(t, workloads.CohortAccel(true), core.Config{
		Watches:   []string{"result_count"},
		UserClock: workloads.Clk,
	}, workloads.Clk)
	// The user observes the hang: run long, then pause and inspect. The
	// design's en/n_items ports are chip IOs, driven at the board level.
	sim := d.Cable.Board.Sim
	sim.Poke("en", 1)
	sim.Poke("n_items", 10)
	d.Run(600)
	d.Pause()

	count, err := d.Peek("datapath.result_cnt")
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 || count >= 10 {
		t.Fatalf("expected partial results, got %d", count)
	}
	// Full visibility: no recompiles, just read the suspects.
	lsuState, _ := d.Peek("lsu.state")
	mmuBusy, _ := d.Peek("mmu.busy")
	busCount, _ := d.Peek("sysbus.req_count")
	if lsuState != 2 {
		t.Errorf("lsu.state = %d, want 2 (wait-ack)", lsuState)
	}
	if mmuBusy != 0 {
		t.Errorf("mmu.busy = %d, want 0", mmuBusy)
	}
	if busCount == 0 {
		t.Error("system bus never saw traffic")
	}
	// Hide the bug to preserve emulation progress (§3.3): force the LSU
	// past the lost acknowledge and let it continue.
	if err := d.Poke("lsu.paddr_r", 0x1004); err != nil {
		t.Fatal(err)
	}
	if err := d.Poke("lsu.state", 3); err != nil {
		t.Fatal(err)
	}
	d.Resume()
	d.Run(60)
	d.Pause()
	after, _ := d.Peek("datapath.result_cnt")
	if after <= count {
		t.Errorf("state forcing did not unwedge the accelerator: %d -> %d", count, after)
	}
}
