package synth

import (
	"fmt"
	"testing"

	"zoomie/internal/fpga"
	"zoomie/internal/rtl"
)

func TestRegisterMapsToFFs(t *testing.T) {
	m := rtl.NewModule("r")
	r := m.Reg("r", 13, "clk", 0)
	m.SetNext(r, rtl.S(r))
	n, err := Synthesize(rtl.NewDesign("r", m))
	if err != nil {
		t.Fatal(err)
	}
	if n.TotalUsage[fpga.FF] != 13 {
		t.Errorf("FF = %d, want 13", n.TotalUsage[fpga.FF])
	}
	if n.TotalUsage[fpga.LUT] != 0 {
		t.Errorf("a feedback register should use no LUTs, got %d", n.TotalUsage[fpga.LUT])
	}
}

func TestAdderLUTCount(t *testing.T) {
	m := rtl.NewModule("a")
	x := m.Input("x", 32)
	y := m.Input("y", 32)
	s := m.Output("s", 32)
	m.Connect(s, rtl.Add(rtl.S(x), rtl.S(y)))
	n, err := Synthesize(rtl.NewDesign("a", m))
	if err != nil {
		t.Fatal(err)
	}
	// 32-bit adder: 96 gates -> 32 LUTs, a realistic carry-chain cost.
	if got := n.TotalUsage[fpga.LUT]; got != 32 {
		t.Errorf("32-bit adder = %d LUTs, want 32", got)
	}
}

func TestWiringIsFree(t *testing.T) {
	m := rtl.NewModule("w")
	x := m.Input("x", 32)
	o := m.Output("o", 16)
	m.Connect(o, rtl.Concat(rtl.Slice(rtl.S(x), 7, 0), rtl.Slice(rtl.S(x), 31, 24)))
	n, err := Synthesize(rtl.NewDesign("w", m))
	if err != nil {
		t.Fatal(err)
	}
	if n.TotalUsage[fpga.LUT] != 0 {
		t.Errorf("slicing/concat cost %d LUTs, want 0", n.TotalUsage[fpga.LUT])
	}
}

func TestShallowMemoryMapsToLUTRAM(t *testing.T) {
	m := rtl.NewModule("m")
	mem := m.Mem("rf", 10, 64)
	mem.Write("clk", rtl.C(0, 6), rtl.C(0, 10), rtl.C(0, 1))
	n, err := Synthesize(rtl.NewDesign("m", m))
	if err != nil {
		t.Fatal(err)
	}
	if n.TotalUsage[fpga.LUTRAM] != 10 {
		t.Errorf("64x10 memory = %d LUTRAMs, want 10", n.TotalUsage[fpga.LUTRAM])
	}
	if n.TotalUsage[fpga.BRAM] != 0 {
		t.Error("shallow memory should not use BRAM")
	}
}

func TestDeepMemoryMapsToBRAM(t *testing.T) {
	m := rtl.NewModule("m")
	mem := m.Mem("buf", 32, 3456) // 110,592 bits = exactly 3 BRAMs
	mem.Write("clk", rtl.C(0, 12), rtl.C(0, 32), rtl.C(0, 1))
	n, err := Synthesize(rtl.NewDesign("m", m))
	if err != nil {
		t.Fatal(err)
	}
	if n.TotalUsage[fpga.BRAM] != 3 {
		t.Errorf("3456x32 memory = %d BRAMs, want 3", n.TotalUsage[fpga.BRAM])
	}
	if n.TotalUsage[fpga.LUTRAM] != 0 {
		t.Error("deep memory should not use LUTRAM")
	}
}

func buildLeafAndTop(t *testing.T, copies int) (*rtl.Module, *rtl.Module) {
	t.Helper()
	leaf := rtl.NewModule("leaf")
	a := leaf.Input("a", 8)
	q := leaf.Output("q", 8)
	r := leaf.Reg("r", 8, "clk", 0)
	leaf.SetNext(r, rtl.Add(rtl.S(r), rtl.S(a)))
	leaf.Connect(q, rtl.S(r))

	top := rtl.NewModule("top")
	in := top.Input("in", 8)
	out := top.Output("out", 8)
	var prev rtl.Expr = rtl.S(in)
	for i := 0; i < copies; i++ {
		w := top.Wire(fmt.Sprintf("w%d", i), 8)
		inst := top.Instantiate("u"+string(rune('0'+i)), leaf)
		inst.ConnectInput("a", prev)
		inst.ConnectOutput("q", w)
		prev = rtl.S(w)
	}
	top.Connect(out, prev)
	return leaf, top
}

func TestHierarchicalDedup(t *testing.T) {
	_, top := buildLeafAndTop(t, 4)
	c := NewCache()
	n, err := c.Module(top)
	if err != nil {
		t.Fatal(err)
	}
	if n.TotalUsage[fpga.FF] != 32 {
		t.Errorf("4 leaf copies = %d FFs, want 32", n.TotalUsage[fpga.FF])
	}
	// The cache holds exactly two module netlists: leaf and top.
	if got := len(n.Children); got != 4 {
		t.Errorf("children = %d, want 4", got)
	}
	if n.Children[0].Netlist != n.Children[1].Netlist {
		t.Error("shared module synthesized more than once")
	}
}

func TestCellCountTracksCacheWork(t *testing.T) {
	leaf, top := buildLeafAndTop(t, 3)
	c := NewCache()
	if _, err := c.Module(leaf); err != nil {
		t.Fatal(err)
	}
	afterLeaf := c.CellCount()
	if afterLeaf == 0 {
		t.Fatal("leaf synthesized no cells")
	}
	if _, err := c.Module(top); err != nil {
		t.Fatal(err)
	}
	afterTop := c.CellCount()
	if afterTop <= afterLeaf {
		t.Error("top module added no cells")
	}
	// Re-synthesizing is free.
	if _, err := c.Module(top); err != nil {
		t.Fatal(err)
	}
	if c.CellCount() != afterTop {
		t.Error("memoized synthesis added cells")
	}
}

func TestFlattenNamesAndPaths(t *testing.T) {
	_, top := buildLeafAndTop(t, 2)
	n, err := Synthesize(rtl.NewDesign("top", top))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, c := range n.Flatten() {
		seen[c.Name] = true
	}
	for _, want := range []string{"u0.r", "u1.r", "out"} {
		if !seen[want] {
			t.Errorf("flattened netlist missing cell %q", want)
		}
	}
}

// TestFlatTableResolvesDrivers checks the flat table's dense fanins: a
// child's input port resolves to the parent's port-connection cell, and
// a fanin no cell drives (a chip input) is left out. Each call builds a
// table of its own; the netlist keeps none.
func TestFlatTableResolvesDrivers(t *testing.T) {
	_, top := buildLeafAndTop(t, 2)
	n, err := Synthesize(rtl.NewDesign("top", top))
	if err != nil {
		t.Fatal(err)
	}
	cells := n.Flatten()
	if again := n.Flatten(); &again[0] == &cells[0] {
		t.Fatal("two Flatten calls returned one table")
	}
	drivers := map[string][]string{}
	for _, c := range cells {
		drivers[c.Name] = []string{}
		for _, d := range c.Drivers {
			drivers[c.Name] = append(drivers[c.Name], cells[d].Name)
		}
	}
	for name, want := range map[string][]string{
		"u0.a": {},               // reads the chip input "in"
		"u0.r": {"u0.r", "u0.a"}, // its own state, then its input port
		"u1.q": {"u1.r"},
	} {
		if got := drivers[name]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s drivers = %v, want %v", name, got, want)
		}
	}
}

func TestCellsUnderAndUsageUnder(t *testing.T) {
	_, top := buildLeafAndTop(t, 3)
	n, err := Synthesize(rtl.NewDesign("top", top))
	if err != nil {
		t.Fatal(err)
	}
	if got := n.CellsUnder("u1"); got == 0 {
		t.Error("no cells under u1")
	}
	if u := n.UsageUnder("u1"); u[fpga.FF] != 8 {
		t.Errorf("u1 usage FF = %d, want 8", u[fpga.FF])
	}
	if got := n.CellsUnder("nosuch"); got != 0 {
		t.Errorf("phantom path has %d cells", got)
	}
	if got := n.CellsUnder(""); got != n.TotalCellCount {
		t.Errorf("CellsUnder(\"\") = %d, want %d", got, n.TotalCellCount)
	}
}

func TestLevelsGrowWithDepth(t *testing.T) {
	m := rtl.NewModule("lv")
	a := m.Input("a", 8)
	shallow := mapExpr("s", rtl.And(rtl.S(a), rtl.C(1, 8)))
	deep := mapExpr("d", rtl.Add(rtl.Mul(rtl.S(a), rtl.S(a)), rtl.C(1, 8)))
	if deep.Levels <= shallow.Levels {
		t.Errorf("deep levels %d <= shallow %d", deep.Levels, shallow.Levels)
	}
}

func TestMissingNextRejected(t *testing.T) {
	m := rtl.NewModule("bad")
	m.Reg("r", 4, "clk", 0)
	if _, err := Synthesize(rtl.NewDesign("bad", m)); err == nil {
		t.Error("register without next accepted")
	}
}
