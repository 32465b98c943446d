package sim_test

// Differential testing of the two evaluation engines: the interpreter is
// the reference semantics and the compiled engine (bytecode + dirty-set
// incremental settling) must be bit-identical
// to it on every signal, every memory word and every cycle counter after
// every tick — over all the paper's workload designs and over randomly
// generated designs exercising the full operator set (cf. the
// interpreter-guided differential-testing methodology in PAPERS.md).

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"zoomie/internal/gen"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
	"zoomie/internal/workloads"
)

// enginePair builds an interpreter (reference) and a compiled simulator
// over the same flat design.
func enginePair(t *testing.T, f *rtl.Flat, clocks []sim.ClockSpec) (ref, cmp *sim.Simulator) {
	t.Helper()
	ref, err := sim.NewWithOptions(f, clocks, sim.Options{Engine: sim.EngineInterp})
	if err != nil {
		t.Fatalf("interp engine: %v", err)
	}
	cmp, err = sim.NewWithOptions(f, clocks, sim.Options{Engine: sim.EngineCompiled})
	if err != nil {
		t.Fatalf("compiled engine: %v", err)
	}
	return ref, cmp
}

// compareState asserts bit-identical signal, memory and cycle state.
func compareState(t *testing.T, f *rtl.Flat, clocks []sim.ClockSpec, ref, cmp *sim.Simulator, ctx string) {
	t.Helper()
	for _, sig := range f.Signals {
		rv, err1 := ref.Peek(sig.Name)
		cv, err2 := cmp.Peek(sig.Name)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: peek %q: %v / %v", ctx, sig.Name, err1, err2)
		}
		if rv != cv {
			t.Fatalf("%s: signal %q: interp=%#x compiled=%#x", ctx, sig.Name, rv, cv)
		}
	}
	for _, m := range f.Memories {
		for a := 0; a < m.Depth; a++ {
			rv, _ := ref.PeekMem(m.Name, a)
			cv, _ := cmp.PeekMem(m.Name, a)
			if rv != cv {
				t.Fatalf("%s: mem %s[%d]: interp=%#x compiled=%#x", ctx, m.Name, a, rv, cv)
			}
		}
	}
	for _, c := range clocks {
		if rc, cc := ref.Cycles(c.Name), cmp.Cycles(c.Name); rc != cc {
			t.Fatalf("%s: cycles(%s): interp=%d compiled=%d", ctx, c.Name, rc, cc)
		}
	}
	if ref.Ticks() != cmp.Ticks() {
		t.Fatalf("%s: ticks: interp=%d compiled=%d", ctx, ref.Ticks(), cmp.Ticks())
	}
}

// TestEnginesEquivalentWorkloads locksteps both engines over every
// workload design of the paper's evaluation.
func TestEnginesEquivalentWorkloads(t *testing.T) {
	cases := []struct {
		name   string
		design *rtl.Design
		clocks []sim.ClockSpec
		pokes  map[string]uint64
		ticks  int
	}{
		{
			name:   "manycore16",
			design: workloads.ManycoreSoC(16),
			clocks: []sim.ClockSpec{{Name: workloads.Clk, Period: 1}},
			pokes:  map[string]uint64{"en": 1},
			ticks:  150,
		},
		{
			name:   "cohort-buggy",
			design: workloads.CohortAccel(true),
			clocks: []sim.ClockSpec{{Name: workloads.Clk, Period: 1}},
			pokes:  map[string]uint64{"en": 1, "n_items": 10},
			ticks:  400,
		},
		{
			name:   "cohort-fixed",
			design: workloads.CohortAccel(false),
			clocks: []sim.ClockSpec{{Name: workloads.Clk, Period: 1}},
			pokes:  map[string]uint64{"en": 1, "n_items": 10},
			ticks:  400,
		},
		{
			name:   "exception-soc",
			design: workloads.ExceptionSoC(workloads.HangingExceptionProgram()),
			clocks: []sim.ClockSpec{{Name: workloads.Clk, Period: 1}},
			pokes:  map[string]uint64{"en": 1},
			ticks:  400,
		},
		{
			name:   "netstack",
			design: workloads.NetStack(),
			clocks: []sim.ClockSpec{
				{Name: workloads.NetClk, Period: 1},
				{Name: workloads.MacClk, Period: 1},
			},
			pokes: map[string]uint64{"en": 1, "engine_ready": 1},
			ticks: 300,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := rtl.Elaborate(tc.design)
			if err != nil {
				t.Fatal(err)
			}
			ref, cmp := enginePair(t, f, tc.clocks)
			for name, v := range tc.pokes {
				if err := ref.Poke(name, v); err != nil {
					t.Fatal(err)
				}
				if err := cmp.Poke(name, v); err != nil {
					t.Fatal(err)
				}
			}
			compareState(t, f, tc.clocks, ref, cmp, "after pokes")
			for i := 0; i < tc.ticks; i++ {
				ref.Tick()
				cmp.Tick()
				compareState(t, f, tc.clocks, ref, cmp, fmt.Sprintf("tick %d", i))
			}
		})
	}
}

// TestEnginesEquivalentSnapshot round-trips a snapshot taken from the
// compiled engine through the interpreter and back.
func TestEnginesEquivalentSnapshot(t *testing.T) {
	f, err := rtl.Elaborate(workloads.CohortAccel(false))
	if err != nil {
		t.Fatal(err)
	}
	clocks := []sim.ClockSpec{{Name: workloads.Clk, Period: 1}}
	ref, cmp := enginePair(t, f, clocks)
	for _, s := range []*sim.Simulator{ref, cmp} {
		s.Poke("en", 1)
		s.Poke("n_items", 25)
		s.Run(120)
	}
	snapC := cmp.Snapshot(workloads.Clk)
	snapR := ref.Snapshot(workloads.Clk)
	if !snapC.Equal(snapR) {
		t.Fatalf("snapshots diverge: %v", snapC.Diff(snapR))
	}
	// Cross-restore: state captured on one engine must settle to the same
	// observable state on the other.
	if err := ref.Restore(snapC); err != nil {
		t.Fatal(err)
	}
	if err := cmp.Restore(snapR); err != nil {
		t.Fatal(err)
	}
	compareState(t, f, clocks, ref, cmp, "after cross-restore")
}

// TestEnginesEquivalentRandom locksteps both engines over randomly
// generated designs (100 via testing/quick), with random pokes, memory
// pokes and host clock gating applied identically to both, comparing the
// full architectural and combinational state after every tick.
func TestEnginesEquivalentRandom(t *testing.T) {
	run := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := gen.RandomDesign(r)
		design, clocks, inputs := g.RTL, g.Clocks, g.InputNames()
		f, err := rtl.Elaborate(design)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, cmp := enginePair(t, f, clocks)
		for i := 0; i < 40; i++ {
			if r.Intn(3) == 0 {
				in, v := inputs[r.Intn(len(inputs))], r.Uint64()
				ref.Poke(in, v)
				cmp.Poke(in, v)
			}
			if len(f.Memories) > 0 && r.Intn(8) == 0 {
				m := f.Memories[r.Intn(len(f.Memories))]
				a, v := r.Intn(m.Depth), r.Uint64()
				ref.PokeMem(m.Name, a, v)
				cmp.PokeMem(m.Name, a, v)
			}
			if r.Intn(10) == 0 {
				d, en := clocks[r.Intn(len(clocks))].Name, r.Intn(2) == 0
				ref.SetHostGate(d, en)
				cmp.SetHostGate(d, en)
			}
			ref.Tick()
			cmp.Tick()
			compareState(t, f, clocks, ref, cmp, fmt.Sprintf("seed %d tick %d", seed, i))
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(20260805))}
	if err := quick.Check(run, cfg); err != nil {
		t.Fatal(err)
	}
}
