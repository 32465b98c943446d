package history

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"zoomie/internal/dberr"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
)

var oneClock = []sim.ClockSpec{{Name: "clk", Period: 1}}

// testModule is a counter with a scratch memory and a free-running cycle
// register that stands in for the Debug Controller's cycle_count.
func testModule() *rtl.Module {
	m := rtl.NewModule("hist")
	en := m.Input("en", 1)
	q := m.Output("q", 8)
	cnt := m.Reg("cnt", 8, "clk", 0)
	cyc := m.Reg("cyc", 32, "clk", 0)
	m.SetNext(cnt, rtl.Add(rtl.S(cnt), rtl.C(1, 8)))
	m.SetEnable(cnt, rtl.S(en))
	m.SetNext(cyc, rtl.Add(rtl.S(cyc), rtl.C(1, 32)))
	m.Connect(q, rtl.S(cnt))
	mem := m.Mem("scratch", 8, 8)
	mem.Write("clk", rtl.Slice(rtl.S(cnt), 2, 0), rtl.Slice(rtl.S(cnt), 7, 0), rtl.S(en))
	return m
}

func newSim(t testing.TB, opts ...sim.Options) *sim.Simulator {
	t.Helper()
	f, err := rtl.Elaborate(rtl.NewDesign("hist", testModule()))
	if err != nil {
		t.Fatal(err)
	}
	o := sim.DefaultOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	s, err := sim.NewWithOptions(f, oneClock, o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// byName converts a vector in the engine's current layout back to a
// name-keyed State, so the tests compare full states by name.
func (e *Engine) byName(v *Vec) *State {
	st := &State{Pos: v.Pos, Cycle: v.Cycle,
		Regs: map[string]uint64{}, Inputs: map[string]uint64{}, Mems: map[string][]uint64{}}
	for i, d := range e.regOf {
		st.Regs[e.slots[d].Name] = v.Regs[i]
	}
	for j, m := range e.memOf {
		st.Mems[e.mems[m].Name] = v.Mems[j]
	}
	for k, d := range e.inputs {
		st.Inputs[e.slots[d].Name] = v.Inputs[k].Val
	}
	return st
}

// stateAt is StateAt by name.
func stateAt(e *Engine, pos uint64) (*State, error) {
	v, err := e.StateAt(pos)
	if err != nil {
		return nil, err
	}
	return e.byName(v), nil
}

// saveNamed is SaveNamed by name.
func saveNamed(e *Engine, name string) (*State, error) {
	v, err := e.SaveNamed(name)
	if err != nil {
		return nil, err
	}
	return e.byName(v), nil
}

// namedState is Named by name.
func namedState(e *Engine, name string) (*State, bool) {
	v, ok := e.Named(name)
	if !ok {
		return nil, false
	}
	return e.byName(v), true
}

// expect compares a reconstructed State against a reference snapshot
// taken live at the same position.
func expect(t *testing.T, st *State, ref *sim.Snapshot, inputs map[string]uint64) {
	t.Helper()
	for name, want := range ref.Regs {
		if got := st.Regs[name]; got != want {
			t.Errorf("reg %s = %#x, want %#x", name, got, want)
		}
	}
	if len(st.Regs) != len(ref.Regs) {
		t.Errorf("reconstructed %d regs, want %d", len(st.Regs), len(ref.Regs))
	}
	for name, want := range ref.Mems {
		got := st.Mems[name]
		if len(got) != len(want) {
			t.Fatalf("mem %s has %d words, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("mem %s[%d] = %#x, want %#x", name, i, got[i], want[i])
			}
		}
	}
	for name, want := range inputs {
		if got := st.Inputs[name]; got != want {
			t.Errorf("input %s = %#x, want %#x", name, got, want)
		}
	}
}

// TestReconstructBitIdentical drives a recorded run with interleaved
// host pokes on both engines and requires StateAt to be bit-identical to
// live snapshots captured at every position.
func TestReconstructBitIdentical(t *testing.T) {
	for _, engine := range []sim.Engine{sim.EngineCompiled, sim.EngineInterp} {
		s := newSim(t, sim.Options{Engine: engine})
		e := New(Config{KeyframeEvery: 8})
		e.Attach(s, "cyc")
		s.Poke("en", 1)

		refs := map[uint64]*sim.Snapshot{}
		inputs := map[uint64]uint64{}
		pos := uint64(0)
		for i := 0; i < 100; i++ {
			s.Tick()
			pos++
			if i == 30 {
				s.Poke("cnt", 200) // host write lands in history
			}
			if i == 60 {
				s.Poke("en", 0) // input change lands in history
			}
			if i == 70 {
				s.Poke("en", 1)
			}
			if i%7 == 0 || i == 30 || i == 60 {
				refs[pos] = s.Snapshot("clk")
				v, _ := s.Peek("en")
				inputs[pos] = v
			}
		}
		for p, ref := range refs {
			st, err := stateAt(e, p)
			if err != nil {
				t.Fatalf("engine %v: StateAt(%d): %v", engine, p, err)
			}
			expect(t, st, ref, map[string]uint64{"en": inputs[p]})
			if st.Cycle != p {
				t.Errorf("engine %v: pos %d cycle tag %d, want %d", engine, p, st.Cycle, p)
			}
		}
	}
}

// TestPosForCycle checks cycle→position resolution, including the
// ahead-of-cursor and not-recorded error paths.
func TestPosForCycle(t *testing.T) {
	s := newSim(t)
	e := New(Config{KeyframeEvery: 8})
	e.Attach(s, "cyc")
	s.Poke("en", 1)
	s.Run(50)

	p, err := e.PosForCycle(17)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stateAt(e, p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycle != 17 {
		t.Errorf("cycle at resolved position = %d, want 17", st.Cycle)
	}
	if _, err := e.PosForCycle(51); !errors.Is(err, dberr.ErrHistoryHorizon) {
		t.Errorf("future cycle error = %v, want ErrHistoryHorizon", err)
	}
}

// TestHorizonEviction shrinks the ring until old segments are evicted
// and requires the typed sentinel on pre-horizon seeks while recent
// positions stay reconstructable.
func TestHorizonEviction(t *testing.T) {
	s := newSim(t)
	e := New(Config{KeyframeEvery: 4, MaxKeyframes: 3})
	e.Attach(s, "cyc")
	s.Poke("en", 1)
	s.Run(100)

	if _, err := stateAt(e, 1); !errors.Is(err, dberr.ErrHistoryHorizon) {
		t.Errorf("pre-horizon StateAt error = %v, want ErrHistoryHorizon", err)
	}
	if _, err := e.PosForCycle(1); !errors.Is(err, dberr.ErrHistoryHorizon) {
		t.Errorf("pre-horizon PosForCycle error = %v, want ErrHistoryHorizon", err)
	}
	hp, hc := e.Horizon()
	if hp == 0 || hc == 0 {
		t.Errorf("horizon did not advance: pos=%d cycle=%d", hp, hc)
	}
	ref := s.Snapshot("clk")
	st, err := stateAt(e, 100)
	if err != nil {
		t.Fatal(err)
	}
	expect(t, st, ref, nil)
	if got := e.Stat().Keyframes; got > 3 {
		t.Errorf("ring holds %d keyframes, want <= 3", got)
	}
}

// seekTo emulates the facade's seek: reconstruct, restore onto the sim
// with recording suspended, then move the cursor.
func seekTo(t *testing.T, e *Engine, s *sim.Simulator, pos uint64) {
	t.Helper()
	st, err := stateAt(e, pos)
	if err != nil {
		t.Fatal(err)
	}
	e.Suspend(true)
	if err := s.Restore(&sim.Snapshot{Regs: st.Regs, Mems: st.Mems}); err != nil {
		t.Fatal(err)
	}
	for name, v := range st.Inputs {
		if err := s.Poke(name, v); err != nil {
			t.Fatal(err)
		}
	}
	e.Suspend(false)
	e.SeekDone(pos)
	mirrorOK(t, e, "seek")
}

// mirrorOK requires the engine's live mirror to equal the simulator.
func mirrorOK(t *testing.T, e *Engine, after string) {
	t.Helper()
	if err := e.CheckMirror(); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
}

// TestMirrorTracksSimulator drives every kind of state change the engine
// sees — recorded and suspended ticks, host pokes, whole-state restores,
// a fork, ring eviction, a transplant and a decode + transplant — on both
// simulator engines, and requires the live mirror to equal the simulator
// after each one.
func TestMirrorTracksSimulator(t *testing.T) {
	for _, engine := range []sim.Engine{sim.EngineCompiled, sim.EngineInterp} {
		opts := sim.Options{Engine: engine}
		s := newSim(t, opts)
		e := New(Config{KeyframeEvery: 4, MaxKeyframes: 6})
		e.Attach(s, "cyc")
		mirrorOK(t, e, "attach")
		s.Poke("en", 1)
		mirrorOK(t, e, "input poke")
		s.Run(30)
		mirrorOK(t, e, "recorded ticks")
		s.Poke("cnt", 200)
		s.PokeMem("scratch", 3, 0x5a)
		mirrorOK(t, e, "host pokes")
		e.Suspend(true)
		s.Run(7)
		s.Poke("cnt", 9)
		e.Suspend(false)
		mirrorOK(t, e, "suspended ticks and pokes")
		seekTo(t, e, s, 20)
		s.Poke("cnt", 77) // forks a timeline
		s.Run(40)         // and evicts the oldest segments
		mirrorOK(t, e, "fork and eviction")

		s2 := newSim(t, opts)
		if err := e.Transplant(s2); err != nil {
			t.Fatal(err)
		}
		mirrorOK(t, e, "transplant")
		tip, _ := e.Cursor()
		st, err := stateAt(e, tip)
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Restore(&sim.Snapshot{Regs: st.Regs, Mems: st.Mems}); err != nil {
			t.Fatal(err)
		}
		s2.Poke("en", 1)
		s2.Run(5)
		mirrorOK(t, e, "restore and ticks after transplant")

		e3, err := Decode(e.Encode())
		if err != nil {
			t.Fatal(err)
		}
		s3 := newSim(t, opts)
		if err := e3.Transplant(s3); err != nil {
			t.Fatal(err)
		}
		mirrorOK(t, e3, "decode and transplant")
		if err := s3.Restore(&sim.Snapshot{Regs: st.Regs, Mems: st.Mems}); err != nil {
			t.Fatal(err)
		}
		s3.Poke("en", 1)
		s3.Run(5)
		seekTo(t, e3, s3, tip)
		mirrorOK(t, e3, "restore, ticks and seek after decode")
	}
}

// TestEvictionReleasesSegments pins the ring's eviction leak: an ancestor
// timeline never appends again, so reslicing its segment list without
// clearing the evicted slot kept every evicted keyframe and delta buffer
// reachable through the backing array.
func TestEvictionReleasesSegments(t *testing.T) {
	s := newSim(t)
	e := New(Config{KeyframeEvery: 4, MaxKeyframes: 4})
	e.Attach(s, "cyc")
	defer runtime.KeepAlive(e) // the engine must outlive the GC loop
	s.Poke("en", 1)
	s.Run(12)

	collected := make(chan struct{})
	runtime.SetFinalizer(e.timelines[0].segs[0], func(*segment) { close(collected) })
	// Fork so the root timeline becomes an ancestor: the fork's keyframe
	// overflows the ring and evicts the root's first segment, while the
	// root keeps its later ones.
	seekTo(t, e, s, 10)
	s.Run(1)
	if h, _ := e.Horizon(); h == 0 {
		t.Fatal("root segment was not evicted")
	}
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("evicted segment is still reachable after GC")
}

// TestForkTimeline seeks back, resumes, and requires history to branch:
// the old timeline survives, the new one extends from the fork, and
// reconstruction on the new lineage crosses the fork point correctly.
func TestForkTimeline(t *testing.T) {
	s := newSim(t)
	e := New(Config{KeyframeEvery: 8})
	e.Attach(s, "cyc")
	s.Poke("en", 1)
	s.Run(40)

	seekTo(t, e, s, 20)
	if st := e.Stat(); !st.Detached {
		t.Fatal("cursor not detached after seek")
	}
	// Diverge: poke then run. The poke itself must fork the timeline.
	s.Poke("cnt", 99)
	s.Run(10)

	tls := e.TimelineList()
	if len(tls) != 2 {
		t.Fatalf("have %d timelines, want 2: %+v", len(tls), tls)
	}
	if tls[1].ParentID != 0 || tls[1].ForkCycle != 20 {
		t.Errorf("fork metadata = parent %d at cycle %d, want 0 at 20", tls[1].ParentID, tls[1].ForkCycle)
	}
	if !tls[1].Current {
		t.Error("new timeline is not current")
	}

	// On the new lineage, cycle 25 is the diverged run (cnt continued
	// from 99); reconstruct and compare against live.
	ref := s.Snapshot("clk")
	cur, _ := e.Cursor()
	st, err := stateAt(e, cur)
	if err != nil {
		t.Fatal(err)
	}
	expect(t, st, ref, nil)

	// Crossing the fork into the parent still works.
	st, err = stateAt(e, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Regs["cnt"] != 5 {
		t.Errorf("parent-lineage cnt at pos 5 = %d, want 5", st.Regs["cnt"])
	}
}

// TestTimelineGC bounds retained branches.
func TestTimelineGC(t *testing.T) {
	s := newSim(t)
	e := New(Config{KeyframeEvery: 8, MaxTimelines: 3})
	e.Attach(s, "cyc")
	s.Poke("en", 1)
	s.Run(30)
	for i := 0; i < 6; i++ {
		seekTo(t, e, s, 10)
		s.Run(5)
	}
	if n := len(e.TimelineList()); n > 3 {
		t.Errorf("retained %d timelines, want <= 3", n)
	}
	// The current branch still reconstructs.
	cur, _ := e.Cursor()
	if _, err := stateAt(e, cur); err != nil {
		t.Fatal(err)
	}
}

// TestSavestateAcrossTransplant saves a named state, transplants the
// engine onto a fresh simulator (the board-migration path) and requires
// the savestate and continued recording to survive.
func TestSavestateAcrossTransplant(t *testing.T) {
	s := newSim(t)
	e := New(Config{KeyframeEvery: 8})
	e.Attach(s, "cyc")
	s.Poke("en", 1)
	s.Run(25)
	saved, err := saveNamed(e, "golden")
	if err != nil {
		t.Fatal(err)
	}
	if saved.Regs["cnt"] != 25 {
		t.Fatalf("savestate cnt = %d, want 25", saved.Regs["cnt"])
	}

	s2 := newSim(t)
	if err := e.Transplant(s2); err != nil {
		t.Fatal(err)
	}
	got, ok := namedState(e, "golden")
	if !ok || got.Regs["cnt"] != 25 {
		t.Fatalf("savestate lost across transplant: %v %v", ok, got)
	}
	// Recording continues on the new board: restore-as-host-write, run,
	// reconstruct the tip.
	if err := s2.Restore(&sim.Snapshot{Regs: saved.Regs, Mems: saved.Mems}); err != nil {
		t.Fatal(err)
	}
	s2.Poke("en", 1)
	s2.Run(5)
	ref := s2.Snapshot("clk")
	cur, _ := e.Cursor()
	st, err := stateAt(e, cur)
	if err != nil {
		t.Fatal(err)
	}
	expect(t, st, ref, nil)

	if err := e.Transplant(newDifferentSim(t)); err == nil {
		t.Error("transplant onto a different design succeeded, want error")
	}
}

func newDifferentSim(t *testing.T) *sim.Simulator {
	t.Helper()
	m := rtl.NewModule("other")
	r := m.Reg("r", 4, "clk", 0)
	m.SetNext(r, rtl.Add(rtl.S(r), rtl.C(1, 4)))
	f, err := rtl.Elaborate(rtl.NewDesign("other", m))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(f, oneClock)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestProbeBoundaries requires host-write positions to split probe
// ranges, so reverse-continue free-runs never cross an out-of-band
// write.
func TestProbeBoundaries(t *testing.T) {
	s := newSim(t)
	e := New(Config{KeyframeEvery: 8})
	e.Attach(s, "cyc")
	s.Poke("en", 1)
	s.Run(10)
	s.Poke("cnt", 77) // host write at position 10
	s.Run(10)

	bs := e.ProbeBoundaries(20)
	foundHost := false
	for _, b := range bs {
		if b.Pos == 10 {
			foundHost = true
		}
		if b.Pos >= 20 {
			t.Errorf("boundary %d >= upto 20", b.Pos)
		}
	}
	if !foundHost {
		t.Errorf("host-write position 10 missing from boundaries %+v", bs)
	}
	for i := 1; i < len(bs); i++ {
		if bs[i].Pos <= bs[i-1].Pos {
			t.Errorf("boundaries not strictly ascending: %+v", bs)
		}
	}
}

// TestSuspendStopsRecording checks that suspended ticks do not extend
// history.
func TestSuspendStopsRecording(t *testing.T) {
	s := newSim(t)
	e := New(Config{})
	e.Attach(s, "cyc")
	s.Poke("en", 1)
	s.Run(5)
	tip0, _ := e.Tip()
	e.Suspend(true)
	s.Run(5)
	e.Suspend(false)
	if tip, _ := e.Tip(); tip != tip0 {
		t.Errorf("tip advanced to %d during suspend, want %d", tip, tip0)
	}
}

// TestResolveLayout hands state out in a caller's order: after Resolve
// with the registers and memories reversed, StateAt, SaveNamed, Named
// and LiveDiff index by that order, LiveDiff reports a changed value at
// its position — a memory's last word included — and skips what is not
// held. A transplant keeps the layout, and a layout naming state the
// engine does not record, leaving some out or naming some twice is
// refused.
func TestResolveLayout(t *testing.T) {
	s := newSim(t)
	e := New(Config{KeyframeEvery: 8})
	e.Attach(s, "cyc")
	s.Poke("en", 1)
	s.Run(20)
	own, err := stateAt(e, 20)
	if err != nil {
		t.Fatal(err)
	}
	var regs, mems []string
	for i := len(e.regOf) - 1; i >= 0; i-- {
		regs = append(regs, e.slots[e.regOf[i]].Name)
	}
	for j := len(e.memOf) - 1; j >= 0; j-- {
		mems = append(mems, e.mems[e.memOf[j]].Name)
	}
	if err := e.Resolve(regs, mems); err != nil {
		t.Fatal(err)
	}
	saved, err := e.SaveNamed("here")
	if err != nil {
		t.Fatal(err)
	}
	named, _ := e.Named("here")
	at, err := e.StateAt(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*Vec{at, saved, named} {
		for i, n := range regs {
			if v.Regs[i] != own.Regs[n] {
				t.Errorf("register %d (%s) = %#x, want %#x", i, n, v.Regs[i], own.Regs[n])
			}
		}
		for j, n := range mems {
			if !slices.Equal(v.Mems[j], own.Mems[n]) {
				t.Errorf("memory %d (%s) differs", j, n)
			}
		}
	}

	if r, w := e.LiveDiff(saved.Regs, nil, saved.Mems); len(r) != 0 || slices.ContainsFunc(w, func(ws []int) bool { return len(ws) > 0 }) {
		t.Errorf("live state differs from itself: registers %v, words %v", r, w)
	}
	regVals := slices.Clone(saved.Regs)
	regVals[1] ^= 1
	last := len(saved.Mems[0]) - 1
	words := [][]uint64{slices.Clone(saved.Mems[0])}
	words[0][last] ^= 1
	if r, w := e.LiveDiff(regVals, nil, words); !slices.Equal(r, []int{1}) || !slices.Equal(w[0], []int{last}) {
		t.Errorf("diff of register 1 and word %d: registers %v, words %v", last, r, w)
	}
	held := make([]bool, len(regVals))
	if r, w := e.LiveDiff(regVals, held, make([][]uint64, len(mems))); len(r) != 0 || len(w[0]) != 0 {
		t.Errorf("diff of nothing held: registers %v, words %v", r, w)
	}

	if err := e.Transplant(newSim(t)); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.StateAt(20); !slices.Equal(v.Regs, at.Regs) {
		t.Error("a transplant did not keep the caller's layout")
	}
	for _, bad := range [][]string{{"nope"}, regs[1:], append(slices.Clone(regs[1:]), regs[1])} {
		if err := e.Resolve(bad, mems); err == nil {
			t.Errorf("layout %v accepted", bad)
		}
	}
}
