package toolchain

import (
	"testing"

	"zoomie/internal/fpga"
	"zoomie/internal/place"
	"zoomie/internal/workloads"
)

func TestMonolithicCompileProducesImage(t *testing.T) {
	res, err := Compile(workloads.ManycoreSoC(16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Image == nil {
		t.Fatal("no image produced")
	}
	if res.Image.Design == nil || res.Image.Map == nil {
		t.Fatal("image incomplete")
	}
	// Every register of the elaborated design is locatable.
	for _, r := range res.Image.Design.Registers {
		if _, ok := res.Image.Map.Reg(r.Sig.Name); !ok {
			t.Errorf("register %q unlocatable", r.Sig.Name)
		}
	}
	// The image boots on a board.
	board := fpga.NewBoard(res.Options.Device)
	if err := board.Configure(res.Image); err != nil {
		t.Fatalf("image does not configure: %v", err)
	}
}

func TestSkipImage(t *testing.T) {
	res, err := Compile(workloads.ManycoreSoC(16), Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Image != nil {
		t.Error("image built despite SkipImage")
	}
}

func TestReportAccounting(t *testing.T) {
	res, err := Compile(workloads.ManycoreSoC(16), Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	if r.CellsSynthesized == 0 || r.CellsPlaced == 0 || r.RouteUnits == 0 {
		t.Errorf("zero work counts: %+v", r)
	}
	if r.Total() <= 0 {
		t.Error("non-positive total")
	}
	sum := r.Synth + r.Place + r.Route + r.Timing + r.Bitgen + r.Link + r.Start
	if r.Total() != sum {
		t.Error("Total() is not the sum of phases")
	}
	if r.String() == "" {
		t.Error("empty report string")
	}
}

func TestBiggerDesignCompilesLonger(t *testing.T) {
	small, err := Compile(workloads.ManycoreSoC(16), Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Compile(workloads.ManycoreSoC(128), Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	if big.Report.Total() <= small.Report.Total() {
		t.Errorf("128-core compile (%s) not longer than 16-core (%s)",
			big.Report.Total(), small.Report.Total())
	}
}

func TestVendorIncrementalIsMarginal(t *testing.T) {
	// §5.2: "Vivado's incremental mode shows little gain" — our model
	// gives it a bounded benefit, well under 1.3x.
	d := workloads.ManycoreSoC(64)
	first, err := Compile(d, Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	second, err := CompileIncremental(first, d, Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(first.Report.Total()) / float64(second.Report.Total())
	if speedup < 1.0 || speedup > 1.3 {
		t.Errorf("vendor incremental speedup = %.2fx, want marginal (1.0-1.3x)", speedup)
	}
	if _, err := CompileIncremental(nil, d, Options{}); err == nil {
		t.Error("incremental without previous result accepted")
	}
}

func TestCompileWithPartitionsBuildsRegions(t *testing.T) {
	res, err := Compile(workloads.ManycoreSoC(16), Options{
		Partitions: []place.PartitionSpec{
			{Name: "mut", Paths: []string{workloads.CorePath(0, 0)}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Image.Regions) != 1 {
		t.Fatalf("image has %d regions, want 1", len(res.Image.Regions))
	}
	if res.Image.Regions[0].Name != "mut" {
		t.Errorf("region name %q", res.Image.Regions[0].Name)
	}
}

func TestDefaultsApplied(t *testing.T) {
	res, err := Compile(workloads.ManycoreSoC(8), Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Options.Device == nil || res.Options.TargetMHz != 50 {
		t.Errorf("defaults not applied: %+v", res.Options)
	}
	if res.Options.Cost == (CostModel{}) {
		t.Error("cost model not defaulted")
	}
}

// TestFigure7CalibrationAtFullScale validates the headline calibration at
// the paper's 5400-core scale; skipped under -short (it costs ~1 minute).
func TestFigure7CalibrationAtFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale calibration check skipped in -short mode")
	}
	d := workloads.ManycoreSoC(5400)
	res, err := Compile(d, Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	hours := res.Report.Total().Hours()
	if hours < 3.5 || hours > 5.0 {
		t.Errorf("monolithic 5400-core compile = %.2fh, want the paper's ~4.5h band", hours)
	}
	if !res.Timing.MeetsFrequency(50) {
		t.Errorf("5400-core SoC misses 50 MHz: %.2fns", res.Timing.CriticalNs)
	}
	if res.Timing.MeetsFrequency(100) {
		t.Errorf("5400-core SoC unexpectedly meets 100 MHz: %.2fns", res.Timing.CriticalNs)
	}
}

func TestDeterministicPlacement(t *testing.T) {
	d := workloads.ManycoreSoC(24)
	a, err := Compile(d, Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(d, Options{SkipImage: true})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Placement, b.Placement
	if len(pa.Tiles) != len(pb.Tiles) {
		t.Fatal("placement sizes differ across runs")
	}
	for i, pos := range pa.Tiles {
		if pb.Cells[i].Name != pa.Cells[i].Name || pb.Tiles[i] != pos {
			t.Fatalf("cell %q placed differently across identical runs", pa.Cells[i].Name)
		}
	}
	if a.Timing.CriticalNs != b.Timing.CriticalNs {
		t.Errorf("timing differs across identical runs: %v vs %v",
			a.Timing.CriticalNs, b.Timing.CriticalNs)
	}
	if a.Report.Total() != b.Report.Total() {
		t.Errorf("modeled time differs across identical runs")
	}
}
