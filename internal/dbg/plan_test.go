package dbg

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"zoomie/internal/core"
	"zoomie/internal/dberr"
	"zoomie/internal/faults"
	"zoomie/internal/fpga"
	"zoomie/internal/jtag"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
	"zoomie/internal/toolchain"
)

// multiRegDesign builds n 16-bit registers r0..r(n-1), register j
// stepping by j+1 each cycle. Placement keeps all of it on the primary
// SLR; multiRegSession relocates it to span the U200's SLRs.
func multiRegDesign(n int) *rtl.Design {
	m := rtl.NewModule("multireg")
	q := m.Output("q", 16)
	for i := 0; i < n; i++ {
		r := m.Reg(fmt.Sprintf("r%d", i), 16, "clk", 0)
		m.SetNext(r, rtl.Add(rtl.S(r), rtl.C(uint64(i+1), 16)))
		if i == 0 {
			m.Connect(q, rtl.S(r))
		}
	}
	return rtl.NewDesign("multireg", m)
}

// multiRegSession compiles multiRegDesign(n) and attaches a debugger.
// With spread, register rK is relocated to SLR K%3 in the state map
// before the board is configured — the image-level model of a design
// whose logic spans chiplets (frame/bit offsets are kept, so nothing
// overlaps; the controller's own registers stay on the primary, SLR 1).
// A non-nil profile interposes a seeded injector with the guarded
// transport.
func multiRegSession(t *testing.T, n int, profile *faults.Profile, spread bool) (*Debugger, *faults.Injector) {
	t.Helper()
	wrapped, meta, err := core.Instrument(multiRegDesign(n), core.Config{Watches: []string{"q"}, UserClock: "clk"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := toolchain.Compile(wrapped, toolchain.Options{
		Clocks: []sim.ClockSpec{
			{Name: "clk", Period: 1},
			{Name: core.DebugClock, Period: 1},
		},
		Gates: meta.Gates(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if spread {
		for i := range res.Image.Map.Regs {
			r := &res.Image.Map.Regs[i]
			var k int
			if _, err := fmt.Sscanf(r.Name, "dut.r%d", &k); err == nil {
				r.Addr.SLR = k % 3
			}
		}
	}
	opts := jtag.Options{}
	var inj *faults.Injector
	if profile != nil {
		inj = faults.New(*profile)
		opts = jtag.Options{Faults: inj}
	}
	board := fpga.NewBoard(res.Options.Device)
	dbg, err := AttachWithOptions(board, res.Image, meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dbg.Start(); err != nil {
		t.Fatal(err)
	}
	return dbg, inj
}

func batchNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}
	return names
}

// TestSnapshotOneReadbackPerSLR pins the snapshot read path to one
// coalesced readback per SLR the scope touches, on a clean and on a
// guarded flaky link, once a clock tick has made every frame unknown.
// Cycle comes from those same frames: a scoped snapshot adds the cycle
// counter's frame to its read set instead of paying a separate Peek. A
// second snapshot, of frames the first has just read, reads nothing.
func TestSnapshotOneReadbackPerSLR(t *testing.T) {
	for _, profile := range []*faults.Profile{nil, {Seed: 3, ReadFlip: 0.01}} {
		d, _ := multiRegSession(t, 12, profile, true)
		d.Run(5)
		if err := d.Pause(); err != nil {
			t.Fatal(err)
		}
		want, err := d.Cycles()
		if err != nil {
			t.Fatal(err)
		}
		for _, scope := range []string{"", "dut"} {
			regs, mems := d.stateUnder(d.qualifyPrefix(scope))
			names := map[string]bool{d.Meta.Reg(core.RegCycles): true}
			for _, n := range append(regs, mems...) {
				names[n] = true
			}
			slrs := len(d.Image.Map.FramesTouched(names))
			if slrs < 3 {
				t.Fatalf("scope %q spans %d SLR(s); test needs all three", scope, slrs)
			}
			d.Run(1) // the design stays paused; every frame becomes unknown
			for _, wantRB := range []int64{int64(slrs), 0} {
				before := d.Cable.Stats()
				snap, err := d.Snapshot(scope)
				if err != nil {
					t.Fatal(err)
				}
				if got := d.Cable.Stats().Readbacks - before.Readbacks; got != wantRB {
					t.Errorf("guarded=%v scope %q: snapshot issued %d readbacks, want %d",
						profile != nil, scope, got, wantRB)
				}
				if snap.Cycle != want {
					t.Errorf("guarded=%v scope %q: snapshot cycle %d, want %d", profile != nil, scope, snap.Cycle, want)
				}
			}
		}
	}
}

// TestSnapshotFramesNothingSelected pins the refresh fast path: a base
// that holds the whole scope, refreshed with no frame selected, costs no
// cable operation at all — not even the GSR-mask clear — and comes back
// equal, sharing its memory slices.
func TestSnapshotFramesNothingSelected(t *testing.T) {
	d, _ := multiRegSession(t, 6, nil, true)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	base, err := d.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	elapsed, stats := d.Cable.Elapsed(), d.Cable.Chain.Stats
	got, err := d.SnapshotFrames(context.Background(), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Cable.Elapsed() != elapsed || d.Cable.Chain.Stats != stats {
		t.Errorf("empty refresh touched the cable: %v -> %v modeled, %+v -> %+v",
			elapsed, d.Cable.Elapsed(), stats, d.Cable.Chain.Stats)
	}
	if !reflect.DeepEqual(got, base) {
		t.Error("empty refresh changed the snapshot")
	}
	for n, words := range base.Mems {
		if len(words) > 0 && &got.Mems[n][0] != &words[0] {
			t.Errorf("memory %s copied, want shared with the base", n)
		}
	}
}

// TestBatchOneReadbackPerSLR is the tentpole invariant: a batched read
// of n signals costs exactly one readback per SLR the plan touches —
// never one per signal, never one per frame.
func TestBatchOneReadbackPerSLR(t *testing.T) {
	d, _ := multiRegSession(t, 16, nil, true)
	d.Run(5)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	names := batchNames(16)
	items := make([]PlanItem, len(names))
	for i, n := range names {
		items[i] = PlanItem{Name: n}
	}
	p, err := d.plan(items, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.slrs) < 2 {
		t.Fatalf("16 registers landed on %d SLR(s); test needs a multi-SLR spread", len(p.slrs))
	}

	before := d.Cable.Stats()
	vals, err := d.PeekBatch(names)
	if err != nil {
		t.Fatal(err)
	}
	after := d.Cable.Stats()
	if got, want := after.Readbacks-before.Readbacks, int64(len(p.slrs)); got != want {
		t.Errorf("batched read cost %d readbacks, want exactly %d (one per SLR)", got, want)
	}
	if wb := after.Writebacks - before.Writebacks; wb != 0 {
		t.Errorf("batched read issued %d writebacks, want 0", wb)
	}

	// Decoded values match the single-signal path exactly.
	for i, n := range names {
		want, err := d.Peek(n)
		if err != nil {
			t.Fatal(err)
		}
		if vals[i] != want {
			t.Errorf("batch %s = %d, Peek = %d", n, vals[i], want)
		}
	}

	// Writes: one readback of the frames not known plus one writeback per
	// SLR, values land. The batch above left every frame known; a clock
	// tick (the design stays paused) makes them unknown again.
	for _, known := range []bool{true, false} {
		if !known {
			d.Run(1)
		}
		wvals := make([]uint64, len(names))
		for i := range wvals {
			wvals[i] = uint64(1000 + i)
			if !known {
				wvals[i] += 100
			}
		}
		wantRB := int64(len(p.slrs))
		if known {
			wantRB = 0
		}
		before = d.Cable.Stats()
		if err := d.PokeBatch(names, wvals); err != nil {
			t.Fatal(err)
		}
		after = d.Cable.Stats()
		if got := after.Readbacks - before.Readbacks; got != wantRB {
			t.Errorf("known=%v: batched write cost %d readbacks, want %d", known, got, wantRB)
		}
		if got, want := after.Writebacks-before.Writebacks, int64(len(p.slrs)); got != want {
			t.Errorf("known=%v: batched write cost %d writebacks, want %d", known, got, want)
		}
		before = d.Cable.Stats()
		for i, n := range names {
			if v, _ := d.Peek(n); v != wvals[i] {
				t.Errorf("known=%v: after PokeBatch %s = %d, want %d", known, n, v, wvals[i])
			}
		}
		if got := d.Cable.Stats().Readbacks - before.Readbacks; got != 0 {
			t.Errorf("known=%v: peeks of the frames just written cost %d readbacks, want 0", known, got)
		}
	}
}

// TestBatchSharedFrameDedup is the regression test for the shared-frame
// re-read: signals resolving to the same frame (here literally the same
// register under two names) must not cost extra cable transactions.
func TestBatchSharedFrameDedup(t *testing.T) {
	d := session(t, counterDesign(), core.Config{Watches: []string{"q"}, UserClock: "clk"}, "clk")
	d.Run(3)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	before := d.Cable.Stats()
	vals, err := d.PeekBatch([]string{"cnt", "dut.cnt", "cnt"})
	if err != nil {
		t.Fatal(err)
	}
	after := d.Cable.Stats()
	if got := after.Readbacks - before.Readbacks; got != 1 {
		t.Errorf("three aliases of one register cost %d readbacks, want 1", got)
	}
	if vals[0] != vals[1] || vals[1] != vals[2] {
		t.Errorf("aliased reads disagree: %v", vals)
	}
}

// TestWedgedSLRPartialBatch wedges a secondary SLR and checks the typed
// partial-batch contract: items on healthy SLRs still decode, the error
// classifies as ErrPartialBatch AND as the underlying wedge, and the
// failed SLR is named.
func TestWedgedSLRPartialBatch(t *testing.T) {
	d, inj := multiRegSession(t, 16, &faults.Profile{Seed: 7}, true)
	d.Run(5)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	names := batchNames(16)
	items := make([]PlanItem, len(names))
	for i, n := range names {
		items[i] = PlanItem{Name: n}
	}
	p, err := d.plan(items, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.slrs) < 2 {
		t.Fatalf("need a multi-SLR spread, got %v", p.slrs)
	}
	// Ground truth before the wedge.
	want, err := d.PeekBatch(names)
	if err != nil {
		t.Fatal(err)
	}

	// The read above left every frame known, and a batch of known frames
	// never reaches the board; a clock tick (the design stays paused)
	// sends the next batch to the cable.
	d.Run(1)
	wedged := p.slrs[len(p.slrs)-1]
	inj.WedgeSLR(wedged)

	vals, err := d.PeekBatch(names)
	if err == nil {
		t.Fatal("batch over a wedged SLR succeeded")
	}
	if !errors.Is(err, dberr.ErrPartialBatch) {
		t.Errorf("errors.Is(err, ErrPartialBatch) = false for %v", err)
	}
	if !errors.Is(err, faults.ErrWedged) {
		t.Errorf("partial-batch error hides the wedge cause: %v", err)
	}
	var pbe *PartialBatchError
	if !errors.As(err, &pbe) {
		t.Fatalf("error is not a *PartialBatchError: %v", err)
	}
	if len(pbe.FailedSLRs) != 1 || pbe.FailedSLRs[0] != wedged {
		t.Errorf("FailedSLRs = %v, want [%d]", pbe.FailedSLRs, wedged)
	}
	for i, s := range p.slots {
		if s.slr == wedged {
			if vals[i] != 0 {
				t.Errorf("%s on wedged SLR decoded %d, want 0", names[i], vals[i])
			}
		} else if vals[i] != want[i] {
			t.Errorf("%s on healthy SLR %d = %d, want %d", names[i], s.slr, vals[i], want[i])
		}
	}
}

// TestBatchCancellation: a cancelled context aborts the batch promptly
// with the context's own error — never misclassified as a partial batch
// or a board failure.
func TestBatchCancellation(t *testing.T) {
	d, _ := multiRegSession(t, 16, nil, true)
	d.Run(5)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := d.Cable.Stats()
	_, err := d.PeekBatchCtx(ctx, batchNames(16))
	after := d.Cable.Stats()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
	}
	if errors.Is(err, dberr.ErrPartialBatch) {
		t.Error("cancellation misclassified as a partial batch")
	}
	if got := after.Readbacks - before.Readbacks; got != 0 {
		t.Errorf("cancelled batch still issued %d readbacks", got)
	}
	if err := d.PokeBatchCtx(ctx, []string{"r0"}, []uint64{1}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled write batch returned %v, want context.Canceled", err)
	}
}

// TestBatchTypedErrors checks the dberr classification without giving up
// the legacy message text.
func TestBatchTypedErrors(t *testing.T) {
	d := session(t, counterDesign(), core.Config{Watches: []string{"q"}, UserClock: "clk"}, "clk")
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	_, err := d.PeekBatch([]string{"cnt", "nosuchreg"})
	if !errors.Is(err, dberr.ErrUnknownState) {
		t.Errorf("unknown name: errors.Is(ErrUnknownState) = false for %v", err)
	}
	wantMsg := `dbg: no state element "nosuchreg" (wires are not state; read the registers feeding them)`
	if err == nil || err.Error() != wantMsg {
		t.Errorf("unknown-name message changed:\n got %q\nwant %q", err, wantMsg)
	}
	if err := d.Poke("cnt", 1<<20); !errors.Is(err, dberr.ErrWidthMismatch) {
		t.Errorf("oversized poke: errors.Is(ErrWidthMismatch) = false for %v", err)
	}
	if _, err := d.PeekMem("cnt", 0); !errors.Is(err, dberr.ErrIsRegister) {
		t.Errorf("PeekMem on register: errors.Is(ErrIsRegister) = false for %v", err)
	}
}

// TestChaosDeterminism: the same seed must produce the identical fault
// sequence, recovery work, and (exact) values — the property the fixed
// -chaos smoke in CI relies on.
func TestChaosDeterminism(t *testing.T) {
	run := func() (vals []uint64, stats jtag.CableStats) {
		d, _ := multiRegSession(t, 8, &faults.Profile{
			Seed: 42, ReadFlip: 0.01, WriteFlip: 0.01, Exec: 0.005,
		}, true)
		d.Run(5)
		if err := d.Pause(); err != nil {
			t.Fatal(err)
		}
		names := batchNames(8)
		for i := 0; i < 10; i++ {
			if err := d.Step(1); err != nil {
				t.Fatal(err)
			}
			v, err := d.PeekBatch(names)
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, v...)
		}
		return vals, d.Cable.Stats()
	}
	v1, s1 := run()
	v2, s2 := run()
	if s1 != s2 {
		t.Errorf("same seed, different recovery work:\n  %+v\n  %+v", s1, s2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("same seed, different values at sample %d: %d vs %d", i, v1[i], v2[i])
		}
	}
}
