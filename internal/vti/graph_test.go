package vti

import (
	"context"
	"errors"
	"testing"

	"zoomie/internal/place"
	"zoomie/internal/synth"
	"zoomie/internal/toolchain"
	"zoomie/internal/workloads"
)

func vtiOpts(family *workloads.Manycore) toolchain.Options {
	return toolchain.Options{
		SkipImage: true,
		Partitions: []place.PartitionSpec{
			{Name: "mut", Paths: []string{family.MutPath()}},
		},
	}
}

// TestWarmSharedRecompileAcceptance is the PR's acceptance criterion: a
// warm shared-cache recompile of a single partition is >= 10x faster in
// modeled time than the vendor incremental flow on the same edit, and its
// bitstream is byte-identical to a cold from-scratch compile of the same
// edited design. All modeled times are deterministic, so the measured
// ratio is exact, not a flaky threshold.
func TestWarmSharedRecompileAcceptance(t *testing.T) {
	const cores = 2048
	store := synth.NewMemStore(0)

	// Client A compiles the base design and recompiles the first debug
	// edit, populating the shared checkpoint store.
	familyA := workloads.NewManycore(cores)
	resA, err := CompileCtx(context.Background(), familyA.Base(), vtiOpts(familyA),
		CompileOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resA.RecompileCtx(context.Background(), familyA.Variant(0), "mut",
		RecompileOptions{Resident: true}); err != nil {
		t.Fatal(err)
	}

	// Client B independently regenerates the same design (no shared
	// module pointers — only shared content) and performs the same edit.
	familyB := workloads.NewManycore(cores)
	resB, err := CompileCtx(context.Background(), familyB.Base(), vtiOpts(familyB),
		CompileOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if resB.Report.CellsSynthesized != 0 {
		t.Errorf("client B's initial compile mapped %d cells; want 0 (all checkpoints shared)",
			resB.Report.CellsSynthesized)
	}
	edit := familyB.Variant(0)
	warm, err := resB.RecompileCtx(context.Background(), edit, "mut", RecompileOptions{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Report.CellsSynthesized != 0 {
		t.Errorf("warm shared recompile mapped %d cells; want 0 (edit checkpoint shared from A)",
			warm.Report.CellsSynthesized)
	}

	// The vendor incremental flow on the very same edit.
	mono, err := toolchain.Compile(familyB.Base(), toolchain.Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	vendor, err := toolchain.CompileIncremental(mono, edit, toolchain.Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(vendor.Report.Total()) / float64(warm.Report.Total())
	if ratio < 10 {
		t.Errorf("warm shared recompile is %.1fx faster than vendor incremental, want >= 10x (warm %s, vendor %s)",
			ratio, warm.Report.Total(), vendor.Report.Total())
	}

	// Bitstream identity against a cold from-scratch compile of the same
	// edited design with the same floorplan.
	cold, err := toolchain.Compile(edit, vtiOpts(familyB))
	if err != nil {
		t.Fatal(err)
	}
	if w, c := warm.BitstreamDigest(), cold.BitstreamDigest(); w != c {
		t.Errorf("warm recompile bitstream differs from cold compile: %s vs %s", w, c)
	}
}

// TestColdWarmSharedHitLadder pins the modeled-time ordering across the
// flows at a small scale: vendor incremental > warm VTI recompile of a
// real edit > shared-hit recompile (zero cells mapped).
func TestColdWarmSharedHitLadder(t *testing.T) {
	const cores = 64
	store := synth.NewMemStore(0)
	familyA := workloads.NewManycore(cores)
	resA, err := CompileCtx(context.Background(), familyA.Base(), vtiOpts(familyA),
		CompileOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	warmA, err := resA.RecompileCtx(context.Background(), familyA.Variant(0), "mut", RecompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if warmA.Report.CellsSynthesized == 0 {
		t.Error("a real edit synthesized no cells")
	}

	familyB := workloads.NewManycore(cores)
	resB, err := CompileCtx(context.Background(), familyB.Base(), vtiOpts(familyB),
		CompileOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := resB.RecompileCtx(context.Background(), familyB.Variant(0), "mut", RecompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if shared.Report.CellsSynthesized != 0 {
		t.Errorf("shared-hit recompile synthesized %d cells, want 0", shared.Report.CellsSynthesized)
	}
	if shared.Report.Synth >= warmA.Report.Synth && warmA.Report.Synth > 0 {
		t.Errorf("shared-hit synth (%s) not cheaper than first warm edit (%s)",
			shared.Report.Synth, warmA.Report.Synth)
	}

	mono, err := toolchain.Compile(familyB.Base(), toolchain.Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	vendor, err := toolchain.CompileIncremental(mono, familyB.Variant(0), toolchain.Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	if vendor.Report.Total() <= warmA.Report.Total() {
		t.Errorf("vendor incremental (%s) not slower than VTI recompile (%s)",
			vendor.Report.Total(), warmA.Report.Total())
	}
	// Resident service drops the startup charge and nothing else.
	res, err := resB.RecompileCtx(context.Background(), familyB.Variant(0), "mut", RecompileOptions{Resident: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Start != 0 {
		t.Errorf("resident recompile charged startup %s", res.Report.Start)
	}
	if res.Report.Total() != shared.Report.Total()-shared.Report.Start {
		t.Errorf("resident recompile changed more than startup: %s vs %s-%s",
			res.Report.Total(), shared.Report.Total(), shared.Report.Start)
	}
}

// TestPreCancelledCompileDoesZeroWork: a context cancelled before submit
// must not start any phase or map any cells.
func TestPreCancelledCompileDoesZeroWork(t *testing.T) {
	family := workloads.NewManycore(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	store := synth.NewMemStore(0)
	var phases []string
	_, err := CompileCtx(ctx, family.Base(), vtiOpts(family), CompileOptions{
		Store:   store,
		OnPhase: func(p string) { phases = append(phases, p) },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(phases) != 0 {
		t.Errorf("pre-cancelled compile entered phases %v", phases)
	}
	if st := store.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Errorf("pre-cancelled compile did synthesis work: %d checkpoints saved, %d misses",
			st.Entries, st.Misses)
	}

	// Same for a recompile off a completed result.
	res, err := Compile(family.Base(), vtiOpts(family))
	if err != nil {
		t.Fatal(err)
	}
	phases = nil
	_, err = res.RecompileCtx(ctx, family.Variant(0), "mut",
		RecompileOptions{OnPhase: func(p string) { phases = append(phases, p) }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("recompile err = %v, want context.Canceled", err)
	}
	if len(phases) != 0 {
		t.Errorf("pre-cancelled recompile entered phases %v", phases)
	}
}

// TestCancelMidGraph cancels while the graph is entering the place phase;
// the compile must stop at that boundary without routing or timing.
func TestCancelMidGraph(t *testing.T) {
	family := workloads.NewManycore(8)
	ctx, cancel := context.WithCancel(context.Background())
	var phases []string
	_, err := CompileCtx(ctx, family.Base(), vtiOpts(family), CompileOptions{
		OnPhase: func(p string) {
			phases = append(phases, p)
			if p == PhaseSynth {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, p := range phases {
		if p == PhaseRoute || p == PhaseTiming || p == PhaseBitgen {
			t.Errorf("phase %s ran after mid-graph cancellation (phases %v)", p, phases)
		}
	}
}

// TestPhaseOrder checks the job graph announces its phases in dependency
// order.
func TestPhaseOrder(t *testing.T) {
	family := workloads.NewManycore(8)
	var phases []string
	res, err := CompileCtx(context.Background(), family.Base(), vtiOpts(family),
		CompileOptions{OnPhase: func(p string) { phases = append(phases, p) }})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{PhaseSynth, PhasePlace, PhaseRoute, PhaseTiming, PhaseBitgen}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases = %v, want %v", phases, want)
		}
	}

	phases = nil
	if _, err := res.RecompileCtx(context.Background(), family.Variant(0), "mut",
		RecompileOptions{OnPhase: func(p string) { phases = append(phases, p) }}); err != nil {
		t.Fatal(err)
	}
	want = []string{PhaseSynth, PhasePlace, PhaseRoute, PhaseTiming, PhaseBitgen, PhaseLink}
	if len(phases) != len(want) {
		t.Fatalf("recompile phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("recompile phases = %v, want %v", phases, want)
		}
	}
}
