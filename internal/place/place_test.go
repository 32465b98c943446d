package place

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"zoomie/internal/fpga"
	"zoomie/internal/synth"
	"zoomie/internal/workloads"
)

func socNetlist(t *testing.T, cores int) *synth.ModuleNetlist {
	t.Helper()
	n, err := synth.Synthesize(workloads.ManycoreSoC(cores))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPlaceWholeDesignStatic(t *testing.T) {
	net := socNetlist(t, 32)
	pl, err := Place(net, fpga.NewU200(), nil)
	if err != nil {
		t.Fatal(err)
	}
	placed := 0
	for _, pos := range pl.Tiles {
		if pos != unplaced {
			placed++
		}
	}
	if len(pl.Cells) != net.TotalCellCount || placed != net.TotalCellCount {
		t.Errorf("placed %d of %d cells", placed, net.TotalCellCount)
	}
	if len(pl.Regions[StaticPartition]) == 0 {
		t.Error("no static regions")
	}
}

func TestPlaceWithPartition(t *testing.T) {
	net := socNetlist(t, 32)
	specs := []PartitionSpec{{Name: "mut", Paths: []string{workloads.CorePath(0, 0)}}}
	pl, err := Place(net, fpga.NewU200(), specs)
	if err != nil {
		t.Fatal(err)
	}
	regions := pl.Regions["mut"]
	if len(regions) != 1 {
		t.Fatalf("mut has %d regions, want 1", len(regions))
	}
	// All debug partitions live on one SLR; all partition cells must be
	// inside the region.
	r := regions[0]
	for i, c := range pl.Cells {
		if pl.Parts[i] != "mut" {
			continue
		}
		pos := pl.Tiles[i]
		if !r.Contains(pos.SLR, pos.Row, pos.Col) {
			t.Errorf("mut cell %q placed at %+v outside region %+v", c.Name, pos, r)
		}
		if !strings.HasPrefix(c.Name, "tile0.core0.") {
			t.Errorf("cell %q wrongly assigned to mut", c.Name)
		}
	}
	if pl.DebugSLR("mut") != r.SLR {
		t.Error("DebugSLR mismatch")
	}
	if pl.DebugSLR("nosuch") != -1 {
		t.Error("DebugSLR for missing partition should be -1")
	}
}

func TestMultiplePartitionsShareOneSLR(t *testing.T) {
	net := socNetlist(t, 32)
	specs := []PartitionSpec{
		{Name: "a", Paths: []string{workloads.CorePath(0, 0)}},
		{Name: "b", Paths: []string{workloads.CorePath(0, 1)}},
	}
	pl, err := Place(net, fpga.NewU200(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if pl.DebugSLR("a") != pl.DebugSLR("b") {
		t.Errorf("debug partitions on different SLRs: %d vs %d", pl.DebugSLR("a"), pl.DebugSLR("b"))
	}
	if pl.Regions["a"][0].Overlaps(pl.Regions["b"][0]) {
		t.Error("partition regions overlap")
	}
}

func TestOverProvisionGrowsRegion(t *testing.T) {
	net := socNetlist(t, 32)
	small, err := Place(net, fpga.NewU200(), []PartitionSpec{
		{Name: "mut", Paths: []string{workloads.ClusterPath(0)}, OverProvision: 0.15}})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Place(net, fpga.NewU200(), []PartitionSpec{
		{Name: "mut", Paths: []string{workloads.ClusterPath(0)}, OverProvision: 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if big.Regions["mut"][0].Tiles() <= small.Regions["mut"][0].Tiles() {
		t.Errorf("overprovision 2.5 region (%d tiles) not larger than 0.15 (%d tiles)",
			big.Regions["mut"][0].Tiles(), small.Regions["mut"][0].Tiles())
	}
	if big.Utilization["mut"] >= small.Utilization["mut"] {
		t.Error("larger region should have lower utilization")
	}
}

func TestStateMapCoversAllState(t *testing.T) {
	net := socNetlist(t, 16)
	pl, err := Place(net, fpga.NewU200(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pl.Cells {
		if !c.IsState {
			continue
		}
		if c.MemWidth > 0 {
			if _, ok := pl.StateMap.Mem(c.Name); !ok {
				t.Errorf("memory %q missing from state map", c.Name)
			}
			continue
		}
		if _, ok := pl.StateMap.Reg(c.Name); !ok {
			t.Errorf("register %q missing from state map", c.Name)
		}
	}
}

func TestPartitionStateInsideRegionFrames(t *testing.T) {
	net := socNetlist(t, 32)
	specs := []PartitionSpec{{Name: "mut", Paths: []string{workloads.CorePath(0, 0)}}}
	pl, err := Place(net, fpga.NewU200(), specs)
	if err != nil {
		t.Fatal(err)
	}
	r := pl.Regions["mut"][0]
	lo, hi := r.FrameRange(fpga.NewU200())
	for _, reg := range pl.StateMap.Regs {
		if !strings.HasPrefix(reg.Name, "tile0.core0.") {
			continue
		}
		if reg.Addr.SLR != r.SLR || reg.Addr.Frame < lo || reg.Addr.Frame >= hi {
			t.Errorf("mut register %q placed at frame %d outside region [%d,%d)",
				reg.Name, reg.Addr.Frame, lo, hi)
		}
	}
}

func TestValidateSpecs(t *testing.T) {
	net := socNetlist(t, 16)
	dev := fpga.NewU200()
	cases := []struct {
		name  string
		specs []PartitionSpec
	}{
		{"empty name", []PartitionSpec{{Name: "", Paths: []string{"tile0"}}}},
		{"static reserved", []PartitionSpec{{Name: "static", Paths: []string{"tile0"}}}},
		{"dup name", []PartitionSpec{
			{Name: "a", Paths: []string{"tile0"}},
			{Name: "a", Paths: []string{"tile1"}}}},
		{"dup path", []PartitionSpec{
			{Name: "a", Paths: []string{"tile0"}},
			{Name: "b", Paths: []string{"tile0"}}}},
		{"no paths", []PartitionSpec{{Name: "a"}}},
	}
	for _, c := range cases {
		if _, err := Place(net, dev, c.specs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestDesignTooBigRejected(t *testing.T) {
	// 12000 cores exceed the U200.
	net := socNetlist(t, 12000)
	if _, err := Place(net, fpga.NewU200(), nil); err == nil {
		t.Error("oversized design accepted")
	}
}

func TestReplaceKeepsStaticIntact(t *testing.T) {
	net := socNetlist(t, 32)
	specs := []PartitionSpec{{Name: "mut", Paths: []string{workloads.CorePath(0, 0)}}}
	dev := fpga.NewU200()
	pl, err := Place(net, dev, specs)
	if err != nil {
		t.Fatal(err)
	}
	pl2, work, err := Replace(pl, net, net, specs, "mut")
	if err != nil {
		t.Fatal(err)
	}
	if work == 0 {
		t.Error("replace did no work")
	}
	if len(pl2.Cells) != len(pl.Cells) {
		t.Fatalf("replace placed %d cells, the base %d", len(pl2.Cells), len(pl.Cells))
	}
	for i, c := range pl.Cells {
		if pl.Parts[i] == "mut" {
			continue
		}
		if pl2.Cells[i].Name != c.Name || pl2.Parts[i] != pl.Parts[i] || pl2.Tiles[i] != pl.Tiles[i] {
			t.Errorf("static cell %q moved during replace", c.Name)
		}
		if c.IsState && c.MemWidth == 0 {
			a, _ := pl.StateMap.Reg(c.Name)
			b, _ := pl2.StateMap.Reg(c.Name)
			if a != b {
				t.Errorf("static register %q relocated: %+v -> %+v", c.Name, a, b)
			}
		}
	}
}

func TestReplaceRejectsUnknownPartition(t *testing.T) {
	net := socNetlist(t, 16)
	specs := []PartitionSpec{{Name: "mut", Paths: []string{workloads.CorePath(0, 0)}}}
	pl, err := Place(net, fpga.NewU200(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Replace(pl, net, net, specs, "other"); err == nil {
		t.Error("unknown partition accepted")
	}
}

func TestReplaceRejectsChangesOutsidePartition(t *testing.T) {
	specs := []PartitionSpec{{Name: "mut", Paths: []string{workloads.CorePath(0, 0)}}}
	net := socNetlist(t, 16)
	pl, err := Place(net, fpga.NewU200(), specs)
	if err != nil {
		t.Fatal(err)
	}
	// A netlist with an extra cluster has new cells outside "mut".
	bigger := socNetlist(t, 24)
	if _, _, err := Replace(pl, net, bigger, specs, "mut"); err == nil {
		t.Error("out-of-partition change accepted")
	}
}

// TestReplaceRefusesStaticChanges: a netlist whose logic outside the
// changed partition gained, lost or reordered a cell is refused, and
// the error names the cell.
func TestReplaceRefusesStaticChanges(t *testing.T) {
	specs := []PartitionSpec{{Name: "mut", Paths: []string{workloads.CorePath(0, 0)}}}
	net := socNetlist(t, 16)
	pl, err := Place(net, fpga.NewU200(), specs)
	if err != nil {
		t.Fatal(err)
	}
	// The top module's own cells are static logic.
	top := net.Cells
	if len(top) < 2 {
		t.Fatalf("top module has %d cells", len(top))
	}
	extra := top[0]
	extra.Name = "replace_extra"
	for _, tc := range []struct {
		name  string
		cells []synth.Cell
		cell  string // the cell the error must name
	}{
		{"added", append(slices.Clone(top), extra), "replace_extra"},
		{"removed", slices.Delete(slices.Clone(top), 1, 2), top[1].Name},
		{"reordered", append([]synth.Cell{top[1], top[0]}, top[2:]...), top[0].Name},
	} {
		edited := &synth.ModuleNetlist{Cells: tc.cells, Children: net.Children}
		_, _, err := Replace(pl, net, edited, specs, "mut")
		if err == nil {
			t.Errorf("%s: a static cell change was accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), strconv.Quote(tc.cell)) {
			t.Errorf("%s: error %q does not name cell %q", tc.name, err, tc.cell)
		}
	}
}

func regionSLRs(rs []fpga.Region) []int {
	var slrs []int
	for _, r := range rs {
		slrs = append(slrs, r.SLR)
	}
	return slrs
}

// TestStaticRegionsInRingOrder pins hop-ranked placement: static regions
// come out nearest the primary first, so static state fills the SLR the
// cable reaches without a BOUT hop before any secondary one.
func TestStaticRegionsInRingOrder(t *testing.T) {
	net := socNetlist(t, 16)
	for _, tc := range []struct {
		dev  *fpga.Device
		want []int
	}{
		{fpga.NewU200(), []int{1, 2, 0}},
		{fpga.NewU250(), []int{1, 2, 3, 0}},
	} {
		pl, err := Place(net, tc.dev, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := regionSLRs(pl.Regions[StaticPartition]); !slices.Equal(got, tc.want) {
			t.Errorf("%s: static regions on SLRs %v, want %v", tc.dev.Name, got, tc.want)
		}
		for _, r := range pl.StateMap.Regs {
			if r.Addr.SLR != tc.dev.Primary {
				t.Errorf("%s: register %q on SLR %d, want the primary %d", tc.dev.Name, r.Name, r.Addr.SLR, tc.dev.Primary)
				break
			}
		}
	}
}

// TestChooseDebugSLRPrefersPrimaryOnTie pins the tie-break: on the U200
// every SLR has equal capacity, so the primary wins.
func TestChooseDebugSLRPrefersPrimaryOnTie(t *testing.T) {
	specs := []PartitionSpec{{Name: "p", Paths: []string{"x"}}}
	usage := map[string]fpga.ResourceVec{"p": {fpga.LUT: 1000, fpga.FF: 1000}}
	slr, err := chooseDebugSLR(fpga.NewU200(), specs, usage)
	if err != nil {
		t.Fatal(err)
	}
	if slr != 1 {
		t.Errorf("chose SLR %d, want the primary 1", slr)
	}
}

// shellU200 is a U200 whose primary keeps half its capacity for a
// shell, as on a real Alveo card.
func shellU200() *fpga.Device {
	dev := fpga.NewU200()
	primary := *dev.SLRs[dev.Primary]
	for i := range primary.Capacity {
		primary.Capacity[i] /= 2
	}
	dev.SLRs[dev.Primary] = &primary
	return dev
}

// TestChooseDebugSLRHopsBreakSlackTies: with the primary's capacity
// halved, SLRs 0 and 2 tie on slack and the one a single hop out wins
// over the one two hops out. Static logic still starts on the primary.
func TestChooseDebugSLRHopsBreakSlackTies(t *testing.T) {
	dev := shellU200()
	specs := []PartitionSpec{{Name: "mut", Paths: []string{workloads.CorePath(0, 0)}}}
	usage := map[string]fpga.ResourceVec{"mut": {fpga.LUT: 1000, fpga.FF: 1000}}
	slr, err := chooseDebugSLR(dev, specs, usage)
	if err != nil {
		t.Fatal(err)
	}
	if slr != 2 {
		t.Errorf("chose SLR %d, want 2 (one hop, not two)", slr)
	}

	pl, err := Place(socNetlist(t, 16), dev, specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.DebugSLR("mut"); got != 2 {
		t.Errorf("partition placed on SLR %d, want 2", got)
	}
	if got := regionSLRs(pl.Regions[StaticPartition]); !slices.Equal(got, []int{1, 2, 0}) {
		t.Errorf("static regions on SLRs %v, want [1 2 0]", got)
	}
}
