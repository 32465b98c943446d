package zoomie_test

import (
	"context"
	"maps"
	"slices"
	"testing"

	"zoomie"
	"zoomie/internal/workloads"
)

// socSession debugs the 48-core SoC with its cores enabled, so runs
// change state across many frames.
func socSession(t *testing.T, hc *zoomie.HistoryConfig) *zoomie.Session {
	t.Helper()
	sess, err := zoomie.Debug(workloads.ManycoreSoC(48), zoomie.DebugConfig{
		Watches: []string{"checksum"},
		History: hc,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	if err := sess.PokeInput("en", 1); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestHistoryOpsOneReadbackOneWriteback pins the per-op cost of time
// travel on a paused design: a seek, a rewind and a loadstate each read
// the Debug Controller's frame once and write the changed frames in one
// writeback, and each lands on the state recorded for its target. Each
// op runs twice: after a clock tick, which leaves the paused design as it
// is but makes every frame unknown, it reads the controller's frame; when
// the debugger knows that frame, it reads nothing.
func TestHistoryOpsOneReadbackOneWriteback(t *testing.T) {
	sess := socSession(t, &zoomie.HistoryConfig{MaxKeyframes: 256})
	design := func() map[string]uint64 {
		t.Helper()
		snap, err := sess.Snapshot("dut")
		if err != nil {
			t.Fatal(err)
		}
		return snap.Regs
	}
	sess.Run(200)
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	early, _ := sess.Cycles()
	atEarly := design()
	if _, _, _, err := sess.SaveState("mark"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(150); err != nil {
		t.Fatal(err)
	}
	mid, _ := sess.Cycles()
	atMid := design()
	if err := sess.Step(150); err != nil {
		t.Fatal(err)
	}
	tip, _ := sess.Cycles()

	check := func(name string, from uint64, op func() (uint64, error), cycle uint64, want map[string]uint64) {
		t.Helper()
		for _, known := range []bool{false, true} {
			if _, err := sess.Seek(from); err != nil {
				t.Fatal(err)
			}
			wantRB := int64(0)
			if !known {
				sess.Run(1)
				wantRB = 1
			}
			before := sess.Cable.Stats()
			landed, err := op()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			after := sess.Cable.Stats()
			if rb, wb := after.Readbacks-before.Readbacks, after.Writebacks-before.Writebacks; rb != wantRB || wb != 1 {
				t.Errorf("%s (controller frame known=%v) cost %d readbacks + %d writebacks, want %d + 1",
					name, known, rb, wb, wantRB)
			}
			if c, _ := sess.Cycles(); landed != cycle || c != cycle {
				t.Errorf("%s landed on cycle %d (reported %d), want %d", name, c, landed, cycle)
			}
			if !maps.Equal(design(), want) {
				t.Errorf("%s: design state differs from the state recorded for it", name)
			}
		}
	}
	check("seek", tip, func() (uint64, error) { _, err := sess.Seek(early); return early, err }, early, atEarly)
	check("rewind", tip, func() (uint64, error) { c, _, err := sess.Rewind(tip - mid); return c, err }, mid, atMid)
	// A load keeps the controller's registers, so the cycle stays.
	check("loadstate", mid, func() (uint64, error) { return sess.LoadState("mark") }, mid, atEarly)
}

// TestSeekWhileRunningPausesFirst issues a rewind and a seek on a design
// that was just resumed. The pause they start with ticks the board once
// (the design leaving its breakpoint runs one more cycle), so the cursor
// must be read after it: both must land exactly where they land after an
// explicit pause, and a seek to the cycle the pause reaches must succeed.
func TestSeekWhileRunningPausesFirst(t *testing.T) {
	start := func() *zoomie.Session {
		sess := histSession(t, zoomie.DebugConfig{})
		if err := sess.Pause(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Step(40); err != nil {
			t.Fatal(err)
		}
		if err := sess.Resume(); err != nil {
			t.Fatal(err)
		}
		return sess
	}
	ref := start()
	if err := ref.Pause(); err != nil {
		t.Fatal(err)
	}
	paused, _ := ref.Cycles()
	wantCycle, _, err := ref.Rewind(5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}

	sess := start()
	got, _, err := sess.Rewind(5)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantCycle || got != paused-5 {
		t.Errorf("rewind while running landed on cycle %d, after an explicit pause %d", got, wantCycle)
	}
	snap, err := sess.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(snap.Regs, want.Regs) || !maps.EqualFunc(snap.Mems, want.Mems, slices.Equal) {
		t.Error("rewind while running left a different state than after an explicit pause")
	}

	sess = start()
	if _, err := sess.Seek(paused); err != nil {
		t.Fatalf("seek while running to the cycle its pause reaches: %v", err)
	}
	if c, _ := sess.Cycles(); c != paused {
		t.Errorf("seek while running landed on cycle %d, want %d", c, paused)
	}
}

// TestSeekOverDroppingCableMatchesFreshRun seeks over a guarded cable
// that flips 1% of the words it moves and drops a quarter of the frames
// it writes; the seed makes both fire during the first seek. The frames
// a seek builds are written without a readback, but the transport's
// verify-after-write and RestoreFrames' semantic re-verification still
// re-read every one, so the seek lands bit-identical to a fresh run. The
// first seek follows a clock tick and reads the controller's frame; the
// second follows a step whose pause check left that frame known, and
// reads only to re-verify.
func TestSeekOverDroppingCableMatchesFreshRun(t *testing.T) {
	p, err := zoomie.ParseFaultProfile("flip=0.01,drop=0.25,seed=11")
	if err != nil {
		t.Fatal(err)
	}
	inj := zoomie.NewFaultInjector(p)
	sess := histSession(t, zoomie.DebugConfig{Faults: inj})
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(40); err != nil {
		t.Fatal(err)
	}
	c, _ := sess.Cycles()
	want := freshAt(t, c)
	for _, known := range []bool{false, true} {
		if err := sess.Step(40); err != nil {
			t.Fatal(err)
		}
		// The design stays paused; every frame becomes unknown.
		minRB := int64(1)
		if !known {
			sess.Run(1)
			minRB = 2
		}
		stats := &sess.Cable.Chain.Stats
		before, r0, w0, f0 := sess.Cable.Stats(), stats.FramesRead, stats.FramesWritten, inj.Stats()
		if _, err := sess.Seek(c); err != nil {
			t.Fatal(err)
		}
		if f := inj.Stats(); f.Total() == f0.Total() || (!known && f.Drops == f0.Drops) {
			t.Errorf("known=%v: seek ran into %d faults, %d of them drops; the test needs faults, and drops in the first seek",
				known, f.Total()-f0.Total(), f.Drops-f0.Drops)
		}
		// The controller's frame unless known, then at least one more
		// readback: the semantic re-verification of the frames written.
		if got := sess.Cable.Stats().Readbacks - before.Readbacks; got < minRB {
			t.Errorf("known=%v: guarded seek issued %d readbacks, want at least %d", known, got, minRB)
		}
		if read, wrote := stats.FramesRead-r0, stats.FramesWritten-w0; wrote == 0 || read < 2*wrote {
			t.Errorf("known=%v: guarded seek read %d frames for %d written; verify-after-write and re-verification each re-read every write",
				known, read, wrote)
		}
		sameDesignState(t, sess, want, c)
	}
}

// TestRestoreSnapshotOntoFreshBoardReadsNothing restores a full-scope
// snapshot onto a freshly configured, history-on board — what a board
// swap or fleet import does after adopting history. The mirror diff
// selects the frames to write and the snapshot covers every one, so the
// restore reads no frame at all, yet the board then snapshots equal to
// the source.
func TestRestoreSnapshotOntoFreshBoardReadsNothing(t *testing.T) {
	src := socSession(t, nil)
	src.Run(300)
	if err := src.Pause(); err != nil {
		t.Fatal(err)
	}
	snap, err := src.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}

	fresh := socSession(t, nil)
	stats := &fresh.Cable.Chain.Stats
	r0, w0 := stats.FramesRead, stats.FramesWritten
	if err := fresh.RestoreSnapshot(context.Background(), snap); err != nil {
		t.Fatal(err)
	}
	if got := stats.FramesRead - r0; got != 0 {
		t.Errorf("restore through the mirror read %d frames, want 0", got)
	}
	if stats.FramesWritten == w0 {
		t.Error("restore through the mirror wrote nothing")
	}
	got, err := fresh.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != snap.Cycle || !maps.Equal(got.Regs, snap.Regs) || !maps.EqualFunc(got.Mems, snap.Mems, slices.Equal) {
		t.Error("fresh board does not snapshot equal to the source after the restore")
	}
	if err := fresh.CheckHistoryMirror(); err != nil {
		t.Error(err)
	}
}

// TestAdoptHistoryResolvesLayout adopts an engine whose layout was last
// resolved in another order, the state map's registers and memories
// reversed, onto a fresh session of the same design. Adopting must
// resolve the layout against the new session: a seek and a loadstate
// then land on exactly the state recorded for them.
func TestAdoptHistoryResolvesLayout(t *testing.T) {
	src := socSession(t, &zoomie.HistoryConfig{MaxKeyframes: 256})
	src.Run(100)
	if err := src.Pause(); err != nil {
		t.Fatal(err)
	}
	cycle, err := src.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	want, err := src.Snapshot("dut")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := src.SaveState("mark"); err != nil {
		t.Fatal(err)
	}
	if err := src.Step(300); err != nil {
		t.Fatal(err)
	}
	eng := src.DetachHistory()
	var regs, mems []string
	for _, r := range src.Image.Map.Regs {
		regs = append(regs, r.Name)
	}
	for _, m := range src.Image.Map.Mems {
		mems = append(mems, m.Name)
	}
	slices.Reverse(regs)
	slices.Reverse(mems)
	if err := eng.Resolve(regs, mems); err != nil {
		t.Fatal(err)
	}

	dst := socSession(t, nil)
	if err := dst.AdoptHistory(eng); err != nil {
		t.Fatal(err)
	}
	same := func(op string) {
		t.Helper()
		got, err := dst.Snapshot("dut")
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got.Regs, want.Regs) || !maps.EqualFunc(got.Mems, want.Mems, slices.Equal) {
			t.Errorf("%s after adoption: design state differs from the state recorded for it", op)
		}
	}
	if _, err := dst.Seek(cycle); err != nil {
		t.Fatal(err)
	}
	same("seek")
	if err := dst.Step(40); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.LoadState("mark"); err != nil {
		t.Fatal(err)
	}
	same("loadstate")
}
