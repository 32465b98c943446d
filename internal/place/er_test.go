package place

import (
	"strings"
	"testing"

	"zoomie/internal/fpga"
)

// testDevice builds a one-SLR device with 10×10 tiles and a known
// capacity, so per-row capacity is exactly Capacity/10 and the ER math
// ER = resource × (1 + c) can be pinned against hand-computed values.
func testDevice(cap fpga.ResourceVec) *fpga.Device {
	return &fpga.Device{
		Name: "test-1slr",
		SLRs: []*fpga.SLR{{
			Index: 0, Rows: 10, Cols: 10, Frames: 100, Capacity: cap,
		}},
	}
}

func TestRowsForERMath(t *testing.T) {
	dev := testDevice(fpga.ResourceVec{fpga.LUT: 1000})
	cases := []struct {
		usage int
		c     float64
		rows  int
	}{
		{usage: 300, c: 0.30, rows: 4},  // ER = 390 -> ceil(390/100)
		{usage: 200, c: 0.50, rows: 3},  // ER = 300, exact row boundary
		{usage: 201, c: 0.50, rows: 4},  // ER = 301, one over the boundary
		{usage: 76, c: 0.30, rows: 1},   // ER = 98, fits the minimum row
		{usage: 700, c: 0.30, rows: 10}, // ER = 910, whole SLR
	}
	for _, tc := range cases {
		rows, _, err := rowsFor(dev, 0, fpga.ResourceVec{fpga.LUT: tc.usage}, PartitionSpec{OverProvision: tc.c})
		if err != nil {
			t.Fatalf("usage=%d c=%v: %v", tc.usage, tc.c, err)
		}
		if rows != tc.rows {
			t.Errorf("usage=%d c=%v: rows=%d want %d", tc.usage, tc.c, rows, tc.rows)
		}
	}
}

func TestRowsForOverflow(t *testing.T) {
	dev := testDevice(fpga.ResourceVec{fpga.LUT: 1000})
	// ER = int(800*1.3) = 1040 -> 11 rows > 10 available.
	_, _, err := rowsFor(dev, 0, fpga.ResourceVec{fpga.LUT: 800}, PartitionSpec{OverProvision: 0.30})
	if err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("want rows-overflow error, got %v", err)
	}
}

func TestRowsForEmptyPartition(t *testing.T) {
	dev := testDevice(fpga.ResourceVec{fpga.LUT: 1000})
	rows, util, err := rowsFor(dev, 0, fpga.ResourceVec{}, PartitionSpec{OverProvision: 0.30})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Errorf("empty partition reserves %d rows, want the 1-row minimum", rows)
	}
	if util != 0 {
		t.Errorf("empty partition utilization = %v, want 0", util)
	}
}

func TestRowsForMissingResource(t *testing.T) {
	// A device with zero BRAM cannot host BRAM usage at any size.
	dev := testDevice(fpga.ResourceVec{fpga.LUT: 1000})
	_, _, err := rowsFor(dev, 0, fpga.ResourceVec{fpga.BRAM: 1}, PartitionSpec{OverProvision: 0.30})
	if err == nil || !strings.Contains(err.Error(), "BRAM") {
		t.Fatalf("want missing-BRAM error, got %v", err)
	}
}

func TestRowsForWorstResourceWins(t *testing.T) {
	// LUT needs 2 rows, FF needs 7: the region must satisfy both.
	dev := testDevice(fpga.ResourceVec{fpga.LUT: 1000, fpga.FF: 1000})
	usage := fpga.ResourceVec{fpga.LUT: 150, fpga.FF: 500}
	rows, _, err := rowsFor(dev, 0, usage, PartitionSpec{OverProvision: 0.30}) // ER: 195 -> 2 rows, 650 -> 7 rows
	if err != nil {
		t.Fatal(err)
	}
	if rows != 7 {
		t.Errorf("rows=%d want 7 (worst resource governs)", rows)
	}
}

func TestOverProvisionCoefficient(t *testing.T) {
	usage := fpga.ResourceVec{fpga.LUT: 100, fpga.FF: 10}
	if got := (PartitionSpec{}).Demand(usage); got != (fpga.ResourceVec{fpga.LUT: 130, fpga.FF: 13}) {
		t.Errorf("zero coefficient should default to %v: demand %v", DefaultOverProvision, got)
	}
	if got := (PartitionSpec{OverProvision: 0.5}).Demand(usage); got != (fpga.ResourceVec{fpga.LUT: 150, fpga.FF: 15}) {
		t.Errorf("explicit coefficient overridden: demand %v", got)
	}
}

func TestChooseDebugSLRPrefersSlack(t *testing.T) {
	// Two SLRs; the second has twice the capacity, so after demand is
	// accounted the bigger one has more slack and must win.
	dev := &fpga.Device{
		Name: "test-2slr",
		SLRs: []*fpga.SLR{
			{Index: 0, Rows: 10, Cols: 10, Frames: 100, Capacity: fpga.ResourceVec{fpga.LUT: 500}},
			{Index: 1, Rows: 10, Cols: 10, Frames: 100, Capacity: fpga.ResourceVec{fpga.LUT: 1000}},
		},
	}
	specs := []PartitionSpec{{Name: "p", Paths: []string{"x"}}}
	usage := map[string]fpga.ResourceVec{"p": {fpga.LUT: 300}}
	slr, err := chooseDebugSLR(dev, specs, usage)
	if err != nil {
		t.Fatal(err)
	}
	if slr != 1 {
		t.Errorf("chose SLR %d, want 1 (more slack)", slr)
	}
}

func TestChooseDebugSLRNoFit(t *testing.T) {
	dev := testDevice(fpga.ResourceVec{fpga.LUT: 100})
	specs := []PartitionSpec{{Name: "p", Paths: []string{"x"}}}
	usage := map[string]fpga.ResourceVec{"p": {fpga.LUT: 200}}
	if _, err := chooseDebugSLR(dev, specs, usage); err == nil {
		t.Fatal("demand exceeding every SLR must be rejected")
	}
}
