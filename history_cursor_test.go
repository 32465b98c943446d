package zoomie_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"zoomie"
	"zoomie/internal/history"
)

// checkCursor compares the history engine's cursor queries with a
// reference that reconstructs the cursor's state from recorded history:
// Cursor and Stat must report the reconstructed cycle and horizon,
// PosForCycle of the cursor's cycle must land on a position recorded with
// that cycle, and a cycle past the lineage's tip must be refused with the
// tip's cycle.
func checkCursor(t *testing.T, eng *history.Engine, after string) {
	t.Helper()
	pos, cycle := eng.Cursor()
	want, err := eng.CycleAt(pos)
	if err != nil {
		t.Fatalf("after %s: cursor position %d does not reconstruct: %v", after, pos, err)
	}
	if cycle != want {
		t.Fatalf("after %s: Cursor() = (%d, %d), reconstructed cycle %d", after, pos, cycle, want)
	}
	st := eng.Stat()
	if st.CursorPos != pos || st.CursorCycle != want {
		t.Fatalf("after %s: Stat() cursor (%d, %d), reconstructed (%d, %d)", after, st.CursorPos, st.CursorCycle, pos, want)
	}
	if hc, err := eng.CycleAt(st.HorizonPos); err != nil || hc != st.HorizonCycle {
		t.Fatalf("after %s: Stat() horizon (%d, %d), reconstructed cycle %d (%v)", after, st.HorizonPos, st.HorizonCycle, hc, err)
	}
	p, err := eng.PosForCycle(want)
	if err != nil {
		t.Fatalf("after %s: PosForCycle(%d) of the cursor's cycle: %v", after, want, err)
	}
	if c, err := eng.CycleAt(p); err != nil || c != want {
		t.Fatalf("after %s: PosForCycle(%d) = %d, which reconstructs cycle %d (%v)", after, want, p, c, err)
	}
	tip := want
	for _, tl := range eng.TimelineList() {
		if tl.Current && tl.EndPos > pos && tl.EndCycle > tip {
			tip = tl.EndCycle
		}
	}
	wantErr := fmt.Sprintf("history: cycle %d is ahead of the current cycle %d", tip+1, tip)
	if _, err := eng.PosForCycle(tip + 1); err == nil || err.Error() != wantErr {
		t.Fatalf("after %s: PosForCycle(%d) = %v, want %q", after, tip+1, err, wantErr)
	}
}

// TestHistoryCursorMatchesReconstruction runs seeded time-travel scripts
// (steps, runs, pokes, seeks, rewinds, reverse-continues, savestates and
// loadstates) and checks the history engine's cursor queries against a
// reconstruction of recorded history after every op. A seek keeps the
// cycle of the state it lands on instead of reconstructing it on every
// query, so this pins that the kept cycle is never stale.
func TestHistoryCursorMatchesReconstruction(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runCursorScript(t, seed) })
	}
}

func runCursorScript(t *testing.T, seed int64) {
	sess := histSession(t, zoomie.DebugConfig{
		Watches: []string{"lo"},
		History: &zoomie.HistoryConfig{KeyframeEvery: 8, MaxKeyframes: 256, MaxTimelines: 4},
	})
	eng := sess.HistoryEngine()
	must := func(err error) {
		t.Helper()
		if err != nil && !errors.Is(err, zoomie.ErrHistoryHorizon) {
			t.Fatal(err)
		}
	}
	must(sess.Pause())
	must(sess.SetValueBreakpoint("lo", 5, zoomie.BreakAny))
	checkCursor(t, eng, "pause")
	rng := rand.New(rand.NewSource(seed))
	saves := 0
	for i := 0; i < 60; i++ {
		var op string
		switch k := rng.Intn(8); {
		case k == 0:
			n := 1 + rng.Intn(20)
			op = fmt.Sprintf("step %d", n)
			must(sess.Step(n))
		case k == 1:
			n := 1 + rng.Intn(40)
			op = fmt.Sprintf("run %d", n)
			must(sess.Resume())
			sess.Run(n)
			paused, err := sess.Paused()
			must(err)
			if !paused {
				must(sess.Pause())
			}
		case k == 2:
			v := rng.Uint64() & 0xffff
			op = fmt.Sprintf("poke cnt %d", v)
			must(sess.Poke("cnt", v))
		case k == 3:
			st := eng.Stat()
			c := st.HorizonCycle + uint64(rng.Int63n(int64(st.TipCycle-st.HorizonCycle+1)))
			op = fmt.Sprintf("seek %d", c)
			_, err := sess.Seek(c)
			must(err)
		case k == 4:
			_, cur := eng.Cursor()
			n := uint64(rng.Int63n(int64(cur + 1)))
			op = fmt.Sprintf("rewind %d", n)
			_, _, err := sess.Rewind(n)
			must(err)
		case k == 5:
			op = "reverse-continue"
			_, _, err := sess.ReverseContinue()
			must(err)
		case k == 6:
			op = fmt.Sprintf("savestate s%d", saves%3)
			_, _, _, err := sess.SaveState(fmt.Sprintf("s%d", saves%3))
			must(err)
			saves++
		default:
			if saves == 0 {
				continue
			}
			name := fmt.Sprintf("s%d", rng.Intn(min(saves, 3)))
			op = "loadstate " + name
			_, err := sess.LoadState(name)
			must(err)
		}
		checkCursor(t, eng, fmt.Sprintf("op %d (%s)", i, op))
	}
}
