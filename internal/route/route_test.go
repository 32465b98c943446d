package route

import (
	"testing"

	"zoomie/internal/fpga"
	"zoomie/internal/place"
	"zoomie/internal/synth"
	"zoomie/internal/workloads"
)

func routedSoC(t *testing.T, cores int) (*place.Placement, *Result) {
	t.Helper()
	net, err := synth.Synthesize(workloads.ManycoreSoC(cores))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(net, fpga.NewU200(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Route(pl)
	if err != nil {
		t.Fatal(err)
	}
	return pl, rt
}

func TestRouteProducesEdges(t *testing.T) {
	pl, rt := routedSoC(t, 16)
	if len(rt.Edges) == 0 {
		t.Fatal("no edges routed")
	}
	for _, e := range rt.Edges[:50] {
		if e.Src < 0 || int(e.Src) >= len(pl.Cells) || e.Dst < 0 || int(e.Dst) >= len(pl.Cells) {
			t.Fatalf("edge %d->%d outside the %d-cell table", e.Src, e.Dst, len(pl.Cells))
		}
		from, to := pl.Tiles[e.Src], pl.Tiles[e.Dst]
		if from.SLR < 0 || to.SLR < 0 {
			t.Errorf("edge %q->%q has an unplaced end", pl.Cells[e.Src].Name, pl.Cells[e.Dst].Name)
		}
		if want := abs(from.Row-to.Row) + abs(from.Col-to.Col); e.Dist != want {
			t.Errorf("edge %q->%q distance %d, tiles %+v->%+v are %d apart",
				pl.Cells[e.Src].Name, pl.Cells[e.Dst].Name, e.Dist, from, to, want)
		}
	}
}

// TestRouteRefusesPartialPlacement: a placement that does not locate
// every cell of its table cannot be routed.
func TestRouteRefusesPartialPlacement(t *testing.T) {
	pl, _ := routedSoC(t, 4)
	short := *pl
	short.Tiles = pl.Tiles[:len(pl.Tiles)-1]
	if _, err := Route(&short); err == nil {
		t.Error("a placement missing a cell's tile was routed")
	}
}

func TestRouteWorkScalesWithDesign(t *testing.T) {
	_, small := routedSoC(t, 8)
	_, big := routedSoC(t, 64)
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
	_, rt := routedSoC(t, 64)
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
