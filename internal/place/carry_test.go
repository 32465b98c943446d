package place_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"zoomie/internal/farm"
	"zoomie/internal/fpga"
	"zoomie/internal/gen"
	"zoomie/internal/place"
	"zoomie/internal/rtl"
	"zoomie/internal/synth"
	"zoomie/internal/toolchain"
	"zoomie/internal/vti"
	"zoomie/internal/workloads"
)

// checkCells compares a placement's flat table with the whole-design
// flatten of its netlist, row for row and field by field, and its
// partitions with partitionsOf's.
func checkCells(t *testing.T, name string, pl *place.Placement, net *synth.ModuleNetlist, specs []place.PartitionSpec) {
	t.Helper()
	want := net.Flatten()
	if len(pl.Cells) != len(want) {
		t.Errorf("%s: %d rows, Flatten builds %d", name, len(pl.Cells), len(want))
		return
	}
	for i := range want {
		g, w := &pl.Cells[i], &want[i]
		if g.Name != w.Name || g.Path != w.Path || g.Res != w.Res || g.IsState != w.IsState || g.Levels != w.Levels ||
			g.MemWidth != w.MemWidth || g.MemDepth != w.MemDepth || !slices.Equal(g.Drivers, w.Drivers) {
			t.Errorf("%s: row %d is %+v, Flatten builds %+v", name, i, *g, *w)
			return
		}
	}
	if parts := place.PartitionsOf(want, specs); !slices.Equal(pl.Parts, parts) {
		t.Errorf("%s: partitions differ from partitionsOf's", name)
	}
}

// carryByName builds a recompile's state map the way Replace did before
// it carried by position: the partition's state as placed, then each
// carried state cell's entry looked up by name in the base's map, both
// in table order.
func carryByName(t *testing.T, prev, pl *place.Placement, changed string) *fpga.StateMap {
	t.Helper()
	sm := fpga.NewStateMap(0, 0)
	add := func(from *fpga.StateMap, name string) {
		var err error
		if loc, ok := from.Reg(name); ok {
			err = sm.AddReg(loc)
		} else if loc, ok := from.Mem(name); ok {
			err = sm.AddMem(loc)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, inPart := range []bool{true, false} {
		for i := range pl.Cells {
			if c := &pl.Cells[i]; c.IsState && (pl.Parts[i] == changed) == inPart {
				if inPart {
					add(pl.StateMap, c.Name)
				} else {
					add(prev.StateMap, c.Name)
				}
			}
		}
	}
	return sm
}

// checkState compares a recompile's state map with carryByName's: the
// same registers and memories in the same order, and the same frame
// index. It also checks every row's state slot.
func checkState(t *testing.T, name string, prev, pl *place.Placement, changed string) {
	t.Helper()
	got, want := pl.StateMap, carryByName(t, prev, pl, changed)
	if !slices.Equal(got.Regs, want.Regs) || !slices.Equal(got.Mems, want.Mems) {
		t.Errorf("%s: state differs from the carry by name", name)
		return
	}
	frames := want.FramesTouched(nil)
	if fmt.Sprint(got.FramesTouched(nil)) != fmt.Sprint(frames) {
		t.Errorf("%s: state frames differ from the carry by name", name)
		return
	}
	for slr, fs := range frames {
		for _, f := range fs {
			if !slices.Equal(got.FrameItems(slr, f), want.FrameItems(slr, f)) {
				t.Errorf("%s: frame %d of SLR %d lists %v, the carry by name %v",
					name, f, slr, got.FrameItems(slr, f), want.FrameItems(slr, f))
				return
			}
		}
	}
	for i, c := range pl.Cells {
		s := int(pl.Slots[i])
		switch {
		case s < 0:
			if _, ok := got.RegIndex(c.Name); ok && c.IsState {
				t.Errorf("%s: register %q has no slot", name, c.Name)
			}
		case s < len(got.Regs) && got.Regs[s].Name == c.Name:
		case s < len(got.Mems) && got.Mems[s].Name == c.Name:
		default:
			t.Errorf("%s: row %q has slot %d, holding another entry", name, c.Name, s)
		}
	}
}

// checkRecompile checks a recompile against its base: the flat table
// against Flatten, the state against the carry by name.
func checkRecompile(t *testing.T, name string, base, res *toolchain.Result, specs []place.PartitionSpec, changed string) {
	t.Helper()
	checkCells(t, name, res.Placement, res.Netlist, specs)
	checkState(t, name, base.Placement, res.Placement, changed)
}

// TestCarriedPlacementMatchesFlatten is the carry's differential test,
// with the whole-design Flatten as its oracle: farm recompiles of the
// manycore at four scales and four edit tags, and the VTI recompile of
// every partition and the farm recompile of the toolchain self-check's
// seed-1 designs.
func TestCarriedPlacementMatchesFlatten(t *testing.T) {
	ctx := context.Background()
	for _, cores := range []int{4, 16, 64, 256} {
		fam := workloads.NewManycore(cores)
		d := fam.Variant(0)
		path := farm.ResolvePartition(farm.Spec{}, d)
		specs := []place.PartitionSpec{{Name: farm.PartitionName, Paths: []string{path}}}
		base, err := vti.Compile(d, toolchain.Options{SkipImage: true, Partitions: specs})
		if err != nil {
			t.Fatal(err)
		}
		for _, tag := range []int{1, 2, 63, 64} {
			edited := fam.Variant(0)
			if err := farm.ApplyEdit(edited, path, tag); err != nil {
				t.Fatal(err)
			}
			res, err := base.RecompileCtx(ctx, edited, farm.PartitionName, vti.RecompileOptions{Resident: true})
			if err != nil {
				t.Fatal(err)
			}
			checkRecompile(t, fmt.Sprintf("manycore%d/tag%d", cores, tag), base.Result, res.Result, specs, farm.PartitionName)
		}
	}

	root := rand.New(rand.NewSource(1))
	for di := 0; di < 2; di++ {
		hd := gen.RandomHierDesign(root, 4)
		var specs []place.PartitionSpec
		for _, p := range hd.Parts {
			specs = append(specs, place.PartitionSpec{Name: "p_" + p, Paths: []string{p}})
		}
		base, err := vti.Compile(hd.RTL, toolchain.Options{SkipImage: true, Partitions: specs, Clocks: hd.Clocks})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range hd.Parts {
			edited := hd.Rebuild()
			if err := farm.ApplyEdit(edited.RTL, p, 1); err != nil {
				t.Fatal(err)
			}
			res, err := base.Recompile(edited.RTL, "p_"+p)
			if err != nil {
				t.Fatal(err)
			}
			checkRecompile(t, fmt.Sprintf("synthcheck1.%d/vti-%s", di, p), base.Result, res.Result, specs, "p_"+p)
		}

		spec := farm.Spec{
			Design:  fmt.Sprintf("hier-%x", uint64(hd.BaseSeed)),
			Build:   func() (*rtl.Design, error) { return hd.Rebuild().RTL, nil },
			Options: toolchain.Options{Clocks: hd.Clocks},
		}
		f := farm.New(farm.Config{})
		bj, _, err := f.Compile(spec)
		if err == nil {
			err = bj.Wait(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		rj, _, err := f.Recompile(spec, 1)
		if err == nil {
			err = rj.Wait(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		fspecs := []place.PartitionSpec{{Name: farm.PartitionName, Paths: []string{farm.ResolvePartition(spec, hd.RTL)}}}
		checkRecompile(t, fmt.Sprintf("synthcheck1.%d/farm", di), bj.Result().Result, rj.Result().Result, fspecs, farm.PartitionName)
	}
}

// netlist builds a module netlist with its usage and cell counts.
func netlist(cells []synth.Cell, children ...synth.ChildRef) *synth.ModuleNetlist {
	n := &synth.ModuleNetlist{Cells: cells, Children: children, LocalCellCount: len(cells)}
	for _, c := range cells {
		n.LocalUsage.Add(c.Res)
	}
	n.TotalUsage, n.TotalCellCount = n.LocalUsage, n.LocalCellCount
	for _, ch := range children {
		n.TotalUsage.Add(ch.Netlist.TotalUsage)
		n.TotalCellCount += ch.Netlist.TotalCellCount
	}
	return n
}

func lut(name string, fanin ...string) synth.Cell {
	c := synth.Cell{Name: name, Fanin: fanin, Levels: 1}
	c.Res[fpga.LUT] = 1
	return c
}

func reg(name string, fanin ...string) synth.Cell {
	c := lut(name, fanin...)
	c.IsState = true
	c.Res[fpga.FF] = 1
	return c
}

// driverNames lists the names of the drivers of the flat rows carrying
// name, in table order.
func driverNames(cells []synth.FlatCell, name string) []string {
	var out []string
	for _, c := range cells {
		if c.Name == name {
			for _, d := range c.Drivers {
				out = append(out, cells[d].Name)
			}
		}
	}
	return out
}

// TestCarriedDriversRule covers the carry's drivers rule on a netlist
// built for it. The partition m.p sits under the path module m. The top
// and m read names under m.p, and m's port cell "p.in" is named m.p.in;
// the sibling s reads only its own cells. The recompile adds a row to
// the partition, drops the row m reads as p.gone, and adds a partition
// cell "in", which wins m.p.in from m's port cell by the last-row rule.
// The carried table must equal Flatten's, and s's drivers shift.
func TestCarriedDriversRule(t *testing.T) {
	s := netlist([]synth.Cell{reg("x", "x"), lut("y", "x")})
	build := func(p, s *synth.ModuleNetlist, sName string) *synth.ModuleNetlist {
		m := netlist([]synth.Cell{lut("p.in", "k"), lut("k", "p.q", "p.gone")}, synth.ChildRef{Name: "p", Netlist: p})
		return netlist([]synth.Cell{reg("t", "m.p.q"), lut("u", sName+".x", "t")},
			synth.ChildRef{Name: "m", Netlist: m}, synth.ChildRef{Name: sName, Netlist: s})
	}
	specs := []place.PartitionSpec{{Name: "p", Paths: []string{"m.p"}}}
	oldP := netlist([]synth.Cell{lut("q", "in"), reg("gone", "q")})
	newP := netlist([]synth.Cell{lut("z", "q"), lut("q", "in"), reg("in", "z")})
	base := build(oldP, s, "s")
	pl, err := place.Place(base, fpga.NewU200(), specs)
	if err != nil {
		t.Fatal(err)
	}

	net := build(newP, s, "s")
	got, _, err := place.Replace(pl, base, net, specs, "p")
	if err != nil {
		t.Fatal(err)
	}
	checkCells(t, "edited partition", got, net, specs)
	checkState(t, "edited partition", pl, got, "p")
	for name, want := range map[string][]string{
		"t":      {"m.p.q"},        // the top reads under the partition
		"m.k":    {"m.p.q"},        // m's read of p.gone no longer resolves
		"m.p.q":  {"m.p.in"},       // the partition's own "in", the last such row
		"m.p.in": {"m.k", "m.p.z"}, // m's port cell, then the partition's "in"
		"s.y":    {"s.x"},          // carried, shifted
		"u":      {"s.x", "t"},     // carried path cell, resolved again
	} {
		if g := driverNames(got.Cells, name); !slices.Equal(g, want) {
			t.Errorf("%s drivers = %v, want %v", name, g, want)
		}
	}

	// An equal copy of the sibling is carried; a changed one is refused.
	copyS := netlist([]synth.Cell{reg("x", "x"), lut("y", "x")})
	if got, _, err := place.Replace(pl, base, build(newP, copyS, "s"), specs, "p"); err != nil {
		t.Errorf("an equal copy of the sibling was refused: %v", err)
	} else {
		checkCells(t, "copied sibling", got, build(newP, copyS, "s"), specs)
	}
	changedS := netlist([]synth.Cell{reg("x", "x"), lut("y", "y")})
	if _, _, err := place.Replace(pl, base, build(newP, changedS, "s"), specs, "p"); err == nil || !strings.Contains(err.Error(), `"s.y"`) {
		t.Errorf("a changed sibling cell: error %v, want one naming s.y", err)
	}

	// A partition of two subtrees, m.p and s, which both change size: rows
	// between and after them shift by different amounts, and the top's
	// read of s.x resolves against the new s.
	two := []place.PartitionSpec{{Name: "p", Paths: []string{"m.p", "s"}}}
	twoPl, err := place.Place(base, fpga.NewU200(), two)
	if err != nil {
		t.Fatal(err)
	}
	newS := netlist([]synth.Cell{lut("w", "x"), reg("x", "w"), lut("y", "x")})
	if got, _, err := place.Replace(twoPl, base, build(newP, newS, "s"), two, "p"); err != nil {
		t.Errorf("a partition of two subtrees: %v", err)
	} else {
		checkCells(t, "two subtrees", got, build(newP, newS, "s"), two)
		checkState(t, "two subtrees", twoPl, got, "p")
	}

	// A partition of the top's own cells: m reads the top's cells, so the
	// table is flattened whole, and the rest is carried as before.
	topSpecs := []place.PartitionSpec{{Name: "top", Paths: []string{""}}}
	tpl, err := place.Place(base, fpga.NewU200(), topSpecs)
	if err != nil {
		t.Fatal(err)
	}
	grown := netlist(append([]synth.Cell{reg("v", "u")}, base.Cells...), base.Children...)
	if got, _, err := place.Replace(tpl, base, grown, topSpecs, "top"); err != nil {
		t.Errorf("a partition of the top's own cells: %v", err)
	} else {
		checkCells(t, "top partition", got, grown, topSpecs)
		checkState(t, "top partition", tpl, got, "top")
	}

	// A '.' in an instance name on the path is refused.
	dotted := build(oldP, s, "s.w")
	dpl, err := place.Place(dotted, fpga.NewU200(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := place.Replace(dpl, dotted, build(newP, s, "s.w"), specs, "p"); err == nil || !strings.Contains(err.Error(), "'.'") {
		t.Errorf("a dotted instance name: error %v, want a refusal", err)
	}

	// A partition whose subtree another partition claims is refused.
	nested := []place.PartitionSpec{{Name: "a", Paths: []string{"m"}}, {Name: "p", Paths: []string{"m.p"}}}
	npl, err := place.Place(base, fpga.NewU200(), nested)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := place.Replace(npl, base, net, nested, "p"); err == nil || !strings.Contains(err.Error(), "nests") {
		t.Errorf("a nested partition: error %v, want a refusal", err)
	}
}

// TestDropRegKeepsSlots: dropping a register keeps every row's state slot
// on its own entry, and a recompile of the dropped base leaves the
// register dropped, as the carry by name did.
func TestDropRegKeepsSlots(t *testing.T) {
	p := netlist([]synth.Cell{lut("q", "in"), reg("r", "q")})
	top := netlist([]synth.Cell{reg("t", "t"), reg("u", "t")},
		synth.ChildRef{Name: "p", Netlist: p}, synth.ChildRef{Name: "s", Netlist: netlist([]synth.Cell{reg("x", "x")})})
	specs := []place.PartitionSpec{{Name: "p", Paths: []string{"p"}}}
	pl, err := place.Place(top, fpga.NewU200(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.DropReg("t") {
		t.Fatal("DropReg refused a placed register")
	}
	for i, c := range pl.Cells {
		s := pl.Slots[i]
		if c.Name == "t" && s != -1 || c.Name != "t" && c.IsState && (s < 0 || pl.StateMap.Regs[s].Name != c.Name) {
			t.Errorf("after DropReg, row %q has slot %d", c.Name, s)
		}
	}
	net := netlist(top.Cells, synth.ChildRef{Name: "p", Netlist: netlist([]synth.Cell{lut("q", "in"), reg("r", "q"), reg("r2", "r")})}, top.Children[1])
	got, _, err := place.Replace(pl, top, net, specs, "p")
	if err != nil {
		t.Fatal(err)
	}
	checkState(t, "recompile of a dropped base", pl, got, "p")
	if _, ok := got.StateMap.Reg("t"); ok {
		t.Error("the recompile placed the dropped register again")
	}
}
