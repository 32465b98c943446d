package route

import (
	"testing"

	"zoomie/internal/fpga"
	"zoomie/internal/place"
	"zoomie/internal/synth"
	"zoomie/internal/workloads"
)

func routedSoC(t *testing.T, cores int) (*synth.ModuleNetlist, *place.Placement, *Result) {
	t.Helper()
	net, err := synth.Synthesize(workloads.ManycoreSoC(cores))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(net, fpga.NewU200(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Route(net, pl)
	if err != nil {
		t.Fatal(err)
	}
	return net, pl, rt
}

func TestRouteProducesEdges(t *testing.T) {
	net, pl, rt := routedSoC(t, 16)
	if len(rt.Edges) == 0 {
		t.Fatal("no edges routed")
	}
	for _, e := range rt.Edges[:50] {
		if _, ok := pl.CellTile[e.From]; !ok {
			t.Errorf("edge from unplaced cell %q", e.From)
		}
		if _, ok := pl.CellTile[e.To]; !ok {
			t.Errorf("edge to unplaced cell %q", e.To)
		}
		if e.Dist < 0 {
			t.Errorf("negative distance on %q->%q", e.From, e.To)
		}
	}
	_ = net
}

func TestRouteWorkScalesWithDesign(t *testing.T) {
	_, _, small := routedSoC(t, 8)
	_, _, big := routedSoC(t, 64)
	if big.WorkUnits <= small.WorkUnits {
		t.Errorf("routing work did not grow: %d vs %d", small.WorkUnits, big.WorkUnits)
	}
	if big.TotalWirelength <= small.TotalWirelength {
		t.Errorf("wirelength did not grow: %d vs %d", small.TotalWirelength, big.TotalWirelength)
	}
}

func TestDenselyPackedDesignHasLocalEdges(t *testing.T) {
	// Neighbouring cells are placed densely, so the median edge must be
	// short even though a few global nets span the device.
	_, _, rt := routedSoC(t, 64)
	short := 0
	for _, e := range rt.Edges {
		if e.Dist <= 4 {
			short++
		}
	}
	if frac := float64(short) / float64(len(rt.Edges)); frac < 0.5 {
		t.Errorf("only %.0f%% of edges are local; placement locality broken", frac*100)
	}
}
