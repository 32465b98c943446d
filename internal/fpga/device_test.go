package fpga

import (
	"slices"
	"testing"
)

func TestU200Geometry(t *testing.T) {
	d := NewU200()
	if len(d.SLRs) != 3 {
		t.Fatalf("U200 has %d SLRs, want 3", len(d.SLRs))
	}
	if d.Primary != 1 {
		t.Errorf("U200 primary SLR = %d, want 1", d.Primary)
	}
	// Table 2 derivation: paper resource counts must land on paper
	// utilization percentages against our capacity model.
	capTotal := d.Capacity()
	checks := []struct {
		res    Resource
		used   int
		want   float64 // percent
		within float64
	}{
		{LUT, 1103572, 95.32, 0.05},
		{LUTRAM, 54128, 8.96, 0.05},
		{FF, 12894858, 53.42, 0.05},
		{BRAM, 2120, 98.19, 0.05},
	}
	for _, c := range checks {
		got := 100 * float64(c.used) / float64(capTotal[c.res])
		if got < c.want-c.within || got > c.want+c.within {
			t.Errorf("%s: %d/%d = %.2f%%, want %.2f%%", c.res, c.used, capTotal[c.res], got, c.want)
		}
	}
}

func TestU250HasFourSLRs(t *testing.T) {
	d := NewU250()
	if len(d.SLRs) != 4 {
		t.Fatalf("U250 has %d SLRs, want 4", len(d.SLRs))
	}
}

func TestHopsRingTopology(t *testing.T) {
	u200 := NewU200()
	// Primary is SLR1; ring: 1 -> 2 -> 0.
	if h := u200.Hops(1); h != 0 {
		t.Errorf("hops to primary = %d, want 0", h)
	}
	if h := u200.Hops(2); h != 1 {
		t.Errorf("hops to SLR2 = %d, want 1", h)
	}
	if h := u200.Hops(0); h != 2 {
		t.Errorf("hops to SLR0 = %d, want 2", h)
	}
	// §4.5: on a U250 the final SLR is reached by pulsing BOUT 3 times.
	u250 := NewU250()
	maxHops := 0
	for i := range u250.SLRs {
		if h := u250.Hops(i); h > maxHops {
			maxHops = h
		}
	}
	if maxHops != 3 {
		t.Errorf("U250 max hops = %d, want 3", maxHops)
	}
}

// TestRingOrderNearestFirst pins RingOrder against Hops: the k-th SLR
// listed is k hops from the primary.
func TestRingOrderNearestFirst(t *testing.T) {
	for _, tc := range []struct {
		dev  *Device
		want []int
	}{
		{NewU200(), []int{1, 2, 0}},
		{NewU250(), []int{1, 2, 3, 0}},
	} {
		got := tc.dev.RingOrder()
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: ring order %v, want %v", tc.dev.Name, got, tc.want)
		}
		for k, slr := range got {
			if h := tc.dev.Hops(slr); h != k {
				t.Errorf("%s: SLR %d listed at %d but is %d hops out", tc.dev.Name, slr, k, h)
			}
		}
	}
}

func TestResourceVec(t *testing.T) {
	a := ResourceVec{LUT: 10, FF: 20}
	b := ResourceVec{LUT: 5, FF: 5, BRAM: 1}
	a.Add(b)
	if a[LUT] != 15 || a[FF] != 25 || a[BRAM] != 1 {
		t.Errorf("Add: %v", a)
	}
	if got := b.Scale(3); got[LUT] != 15 || got[BRAM] != 3 {
		t.Errorf("Scale: %v", got)
	}
	if !b.Fits(a) {
		t.Error("b should fit in a")
	}
	big := ResourceVec{LUTRAM: 1000}
	if big.Fits(a) {
		t.Error("big should not fit in a")
	}
}

func TestRegionFrameRange(t *testing.T) {
	d := NewU200()
	r := Region{Name: "p0", SLR: 0, Row: 2, Col: 3, Rows: 2, Cols: 4}
	lo, hi := r.FrameRange(d)
	cols := d.SLRs[0].Cols
	if lo != 2*cols+3 {
		t.Errorf("lo = %d, want %d", lo, 2*cols+3)
	}
	if hi != 3*cols+7 {
		t.Errorf("hi = %d, want %d", hi, 3*cols+7)
	}
	if r.Tiles() != 8 {
		t.Errorf("tiles = %d, want 8", r.Tiles())
	}
}

func TestRegionCapacityProportional(t *testing.T) {
	d := NewU200()
	slr := d.SLRs[0]
	half := Region{SLR: 0, Row: 0, Col: 0, Rows: slr.Rows / 2, Cols: slr.Cols}
	c := half.Capacity(d)
	for _, res := range Resources() {
		want := slr.Capacity[res] / 2
		if c[res] != want {
			t.Errorf("%s: half-SLR capacity %d, want %d", res, c[res], want)
		}
	}
}

func TestRegionContainsAndOverlaps(t *testing.T) {
	a := Region{SLR: 0, Row: 0, Col: 0, Rows: 4, Cols: 4}
	b := Region{SLR: 0, Row: 3, Col: 3, Rows: 4, Cols: 4}
	c := Region{SLR: 0, Row: 4, Col: 4, Rows: 2, Cols: 2}
	other := Region{SLR: 1, Row: 0, Col: 0, Rows: 4, Cols: 4}
	if !a.Contains(0, 3, 3) || a.Contains(0, 4, 0) || a.Contains(1, 0, 0) {
		t.Error("Contains wrong")
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b overlap")
	}
	if a.Overlaps(c) {
		t.Error("a and c do not overlap")
	}
	if a.Overlaps(other) {
		t.Error("regions on different SLRs never overlap")
	}
}

func TestFrameAllocator(t *testing.T) {
	a := NewFrameAllocator(0, 10, 12) // two frames
	addr1, err := a.AllocBits(FrameBits - 8)
	if err != nil || addr1.Frame != 10 || addr1.Bit != 0 {
		t.Fatalf("alloc1 = %+v, %v", addr1, err)
	}
	// 8 bits left in frame 10; a 16-bit allocation must move to frame 11.
	addr2, err := a.AllocBits(16)
	if err != nil || addr2.Frame != 11 || addr2.Bit != 0 {
		t.Fatalf("alloc2 = %+v, %v", addr2, err)
	}
	if _, err := a.AllocBits(FrameBits); err == nil {
		t.Error("allocation beyond region should fail")
	}
	if _, err := a.AllocBits(FrameBits + 1); err == nil {
		t.Error("oversized allocation should fail")
	}
}

func TestFrameAllocatorWholeFrames(t *testing.T) {
	a := NewFrameAllocator(1, 0, 10)
	if _, err := a.AllocBits(5); err != nil {
		t.Fatal(err)
	}
	start, err := a.AllocFrames(3)
	if err != nil || start != 1 {
		t.Fatalf("AllocFrames = %d, %v; want 1", start, err)
	}
	if _, err := a.AllocFrames(20); err == nil {
		t.Error("over-allocation should fail")
	}
}

// TestFrameAllocatorCloseFrame pins the step the placer takes between
// top-level instances: registers share the frame in progress until it is
// closed, closing moves the next allocation to a fresh frame, and closing
// a frame nothing was allocated in wastes no frame.
func TestFrameAllocatorCloseFrame(t *testing.T) {
	a := NewFrameAllocator(2, 10, 14)
	a.CloseFrame() // nothing allocated yet: frame 10 stays open
	var got []BitAddr
	for _, w := range []int{12, 20} {
		addr, err := a.AllocBits(w)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, addr)
	}
	a.CloseFrame()
	a.CloseFrame() // the fresh frame is empty: a second close is a no-op
	addr, err := a.AllocBits(7)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, addr)
	want := []BitAddr{{SLR: 2, Frame: 10, Bit: 0}, {SLR: 2, Frame: 10, Bit: 12}, {SLR: 2, Frame: 11, Bit: 0}}
	if !slices.Equal(got, want) {
		t.Errorf("allocations = %v, want %v", got, want)
	}
	// Memories take whole frames after the registers.
	if start, err := a.AllocFrames(2); err != nil || start != 12 {
		t.Errorf("AllocFrames(2) = %d, %v; want 12", start, err)
	}
}

// TestFrameAllocatorExhaustedOnceFull fills a region with registers and
// memories and checks both allocations then fail with the same error.
func TestFrameAllocatorExhaustedOnceFull(t *testing.T) {
	const exhausted = "fpga: SLR 1 region frames exhausted"
	a := NewFrameAllocator(1, 0, 3)
	if _, err := a.AllocBits(FrameBits - 1); err != nil {
		t.Fatal(err)
	}
	if start, err := a.AllocFrames(2); err != nil || start != 1 {
		t.Fatalf("AllocFrames(2) = %d, %v; want 1", start, err)
	}
	if _, err := a.AllocBits(1); err == nil || err.Error() != exhausted {
		t.Errorf("AllocBits on a full region: %v, want %q", err, exhausted)
	}
	a.CloseFrame()
	if _, err := a.AllocFrames(1); err == nil || err.Error() != exhausted {
		t.Errorf("AllocFrames on a full region: %v, want %q", err, exhausted)
	}
}

func TestStateMapLookupsAndFrames(t *testing.T) {
	sm := NewStateMap(0, 0)
	if err := sm.AddReg(RegLoc{Name: "a.r", Width: 8, Addr: BitAddr{SLR: 0, Frame: 5, Bit: 0}}); err != nil {
		t.Fatal(err)
	}
	if err := sm.AddReg(RegLoc{Name: "b.r", Width: 8, Addr: BitAddr{SLR: 2, Frame: 7, Bit: 8}}); err != nil {
		t.Fatal(err)
	}
	if err := sm.AddMem(MemLoc{Name: "m", Width: 32, Depth: 200, SLR: 0, StartFrame: 100}); err != nil {
		t.Fatal(err)
	}
	if err := sm.AddReg(RegLoc{Name: "a.r", Width: 8}); err == nil {
		t.Error("duplicate register accepted")
	}
	if err := sm.AddReg(RegLoc{Name: "wide", Width: 32, Addr: BitAddr{Bit: FrameBits - 8}}); err == nil {
		t.Error("frame-spanning register accepted")
	}
	if _, ok := sm.Reg("a.r"); !ok {
		t.Error("Reg lookup failed")
	}
	if _, ok := sm.Mem("m"); !ok {
		t.Error("Mem lookup failed")
	}
	if _, ok := sm.Reg("nosuch"); ok {
		t.Error("phantom register")
	}

	all := sm.FramesTouched(nil)
	// mem: 32-bit words, 93 per frame -> 200 words = 3 frames (100..102).
	if got := all[0]; len(got) != 4 || got[0] != 5 || got[3] != 102 {
		t.Errorf("SLR0 frames = %v", got)
	}
	if got := all[2]; len(got) != 1 || got[0] != 7 {
		t.Errorf("SLR2 frames = %v", got)
	}
	only := sm.FramesTouched(map[string]bool{"b.r": true})
	if len(only) != 1 || len(only[2]) != 1 {
		t.Errorf("filtered frames = %v", only)
	}
}

func TestMemLocAddressing(t *testing.T) {
	m := MemLoc{Name: "m", Width: 64, Depth: 100, SLR: 1, StartFrame: 10}
	wpf := m.WordsPerFrame()
	if wpf != FrameBits/64 {
		t.Fatalf("words per frame = %d", wpf)
	}
	a0 := m.WordAddr(0)
	if a0.Frame != 10 || a0.Bit != 0 {
		t.Errorf("word 0 at %+v", a0)
	}
	aw := m.WordAddr(wpf + 2)
	if aw.Frame != 11 || aw.Bit != 128 {
		t.Errorf("word %d at %+v", wpf+2, aw)
	}
	if m.FrameCount() != (100+wpf-1)/wpf {
		t.Errorf("frame count = %d", m.FrameCount())
	}
}
