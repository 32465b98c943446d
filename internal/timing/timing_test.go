package timing

import (
	"testing"

	"zoomie/internal/fpga"
	"zoomie/internal/place"
	"zoomie/internal/route"
	"zoomie/internal/rtl"
	"zoomie/internal/synth"
	"zoomie/internal/workloads"
)

func analyze(t *testing.T, d *rtl.Design, specs []place.PartitionSpec) *Analysis {
	t.Helper()
	net, err := synth.Synthesize(d)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(net, fpga.NewU200(), specs)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := route.Route(pl)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(pl, rt)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// chainDesign builds a design whose critical path has `depth` sequential
// adders between registers.
func chainDesign(depth int) *rtl.Design {
	m := rtl.NewModule("chain")
	src := m.Reg("src", 16, "clk", 1)
	m.SetNext(src, rtl.S(src))
	prev := rtl.S(src)
	for i := 0; i < depth; i++ {
		w := m.Wire(wname(i), 16)
		m.Connect(w, rtl.Add(prev, rtl.C(uint64(i+1), 16)))
		prev = rtl.S(w)
	}
	dst := m.Reg("dst", 16, "clk", 0)
	m.SetNext(dst, prev)
	return rtl.NewDesign("chain", m)
}

func wname(i int) string { return "w" + string(rune('a'+i)) }

func TestDeeperLogicIsSlower(t *testing.T) {
	shallow := analyze(t, chainDesign(2), nil)
	deep := analyze(t, chainDesign(12), nil)
	if deep.CriticalNs <= shallow.CriticalNs {
		t.Errorf("12-stage chain (%.2fns) not slower than 2-stage (%.2fns)",
			deep.CriticalNs, shallow.CriticalNs)
	}
	if deep.FmaxMHz >= shallow.FmaxMHz {
		t.Error("fmax did not drop with depth")
	}
}

func TestMeetsFrequency(t *testing.T) {
	an := &Analysis{CriticalNs: 15.0}
	if !an.MeetsFrequency(50) {
		t.Error("15ns should meet 50 MHz (20ns)")
	}
	if an.MeetsFrequency(100) {
		t.Error("15ns should fail 100 MHz (10ns)")
	}
}

func TestCriticalPathIsReported(t *testing.T) {
	an := analyze(t, chainDesign(8), nil)
	if len(an.TopPaths) == 0 {
		t.Fatal("no paths reported")
	}
	if an.TopPaths[0].DelayNs != an.CriticalNs {
		t.Error("first path is not the critical one")
	}
	if an.TopPaths[0].Endpoint != "dst" {
		t.Errorf("critical endpoint = %q, want dst", an.TopPaths[0].Endpoint)
	}
	for i := 1; i < len(an.TopPaths); i++ {
		if an.TopPaths[i].DelayNs > an.TopPaths[i-1].DelayNs {
			t.Error("paths not sorted by delay")
		}
	}
}

func TestPathsThrough(t *testing.T) {
	an := &Analysis{TopPaths: []Path{
		{Endpoint: "zdbg.trigger", Startcell: "a"},
		{Endpoint: "cpu.pc", Startcell: "zdbg.step"},
		{Endpoint: "cpu.acc", Startcell: "cpu.pc"},
	}}
	if got := an.PathsThrough("zdbg"); got != 2 {
		t.Errorf("PathsThrough(zdbg) = %d, want 2", got)
	}
	if got := an.PathsThrough("nosuch"); got != 0 {
		t.Errorf("PathsThrough(nosuch) = %d, want 0", got)
	}
}

func TestSoCMeets50MHzConfiguration(t *testing.T) {
	// The §5.2 closure result at a scale testable in CI: the manycore SoC
	// meets its 50 MHz default both monolithic and partitioned.
	mono := analyze(t, workloads.ManycoreSoC(160), nil)
	if !mono.MeetsFrequency(50) {
		t.Errorf("monolithic SoC misses 50 MHz: %.2fns", mono.CriticalNs)
	}
	part := analyze(t, workloads.ManycoreSoC(160), []place.PartitionSpec{
		{Name: "mut", Paths: []string{workloads.CorePath(0, 0)}}})
	if !part.MeetsFrequency(50) {
		t.Errorf("partitioned SoC misses 50 MHz: %.2fns", part.CriticalNs)
	}
}

func TestCongestionSlowsTightRegions(t *testing.T) {
	// Same design, same region content, but a tighter over-provisioning
	// coefficient raises utilization and thus net delays in the region.
	d := workloads.ManycoreSoC(32)
	loose := analyze(t, d, []place.PartitionSpec{
		{Name: "mut", Paths: []string{workloads.ClusterPath(0)}, OverProvision: 2.0}})
	tight := analyze(t, d, []place.PartitionSpec{
		{Name: "mut", Paths: []string{workloads.ClusterPath(0)}, OverProvision: 0.15}})
	if tight.CriticalNs < loose.CriticalNs-0.001 {
		t.Errorf("tight region (%.3fns) faster than loose (%.3fns)",
			tight.CriticalNs, loose.CriticalNs)
	}
}

// TestAnalyzeRefusesUngroupedEdges: Analyze reads each cell's fanin edges
// as one run of the routed order, so it refuses edges whose consumers are
// out of that order, and accepts them once the order is restored.
func TestAnalyzeRefusesUngroupedEdges(t *testing.T) {
	net, err := synth.Synthesize(chainDesign(4))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(net, fpga.NewU200(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := route.Route(pl)
	if err != nil {
		t.Fatal(err)
	}
	last := len(rt.Edges) - 1
	if rt.Edges[0].Dst == rt.Edges[last].Dst {
		t.Fatal("chain routes every edge into one cell")
	}
	rt.Edges[0], rt.Edges[last] = rt.Edges[last], rt.Edges[0]
	if _, err := Analyze(pl, rt); err == nil {
		t.Error("Analyze accepted edges out of consumer order")
	}
	rt.Edges[0], rt.Edges[last] = rt.Edges[last], rt.Edges[0]
	if _, err := Analyze(pl, rt); err != nil {
		t.Errorf("Analyze refused the routed order: %v", err)
	}
}
