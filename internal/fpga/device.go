// Package fpga models a Xilinx UltraScale+-style multi-chiplet FPGA at the
// level of detail Zoomie's host software needs: Super Logic Regions (SLRs)
// with their own configuration controllers, a tile grid with typed
// resources, configuration frames addressing the state plane, gatable
// global clocks, and the global set-reset (GSR) machinery with its mask
// register.
//
// Functional execution of a loaded design is delegated to the RTL
// simulator: the board holds a cycle-accurate instance of the design and a
// StateMap that locates every register and memory bit in (SLR, frame,
// bit) coordinates, so configuration reads and writes move through real
// frame addressing exactly as readback does on hardware.
package fpga

import "fmt"

// Resource enumerates the FPGA resource classes tracked by the toolchain.
type Resource int

const (
	LUT Resource = iota
	LUTRAM
	FF
	BRAM
	numResources
)

var resourceNames = [...]string{"LUT", "LUTRAM", "FF", "BRAM"}

func (r Resource) String() string {
	if r >= 0 && int(r) < len(resourceNames) {
		return resourceNames[r]
	}
	return fmt.Sprintf("Resource(%d)", int(r))
}

// Resources returns all resource classes in display order.
func Resources() []Resource { return []Resource{LUT, LUTRAM, FF, BRAM} }

// ResourceVec is a count per resource class.
type ResourceVec [numResources]int

// Add accumulates o into v.
func (v *ResourceVec) Add(o ResourceVec) {
	for i := range v {
		v[i] += o[i]
	}
}

// Scale returns v with every component multiplied by k.
func (v ResourceVec) Scale(k int) ResourceVec {
	for i := range v {
		v[i] *= k
	}
	return v
}

// Fits reports whether v fits within capacity c component-wise.
func (v ResourceVec) Fits(c ResourceVec) bool {
	for i := range v {
		if v[i] > c[i] {
			return false
		}
	}
	return true
}

// FrameWords is the number of 32-bit words in one configuration frame,
// matching the UltraScale architecture's 93-word frames.
const FrameWords = 93

// FrameBits is the number of state bits one frame can address.
const FrameBits = FrameWords * 32

// SLR is one chiplet: a complete FPGA die with its own configuration
// microcontroller, resource capacity, and frame address space.
type SLR struct {
	Index    int
	Rows     int // tile rows
	Cols     int // tile columns
	Frames   int // configuration frames in this SLR
	Capacity ResourceVec
}

// Device describes a multi-SLR FPGA card.
type Device struct {
	Name    string
	SLRs    []*SLR
	Primary int // index of the primary (master) SLR
}

// Capacity returns the whole-device resource capacity.
func (d *Device) Capacity() ResourceVec {
	var total ResourceVec
	for _, s := range d.SLRs {
		total.Add(s.Capacity)
	}
	return total
}

// TotalFrames returns the number of configuration frames across all SLRs.
func (d *Device) TotalFrames() int {
	n := 0
	for _, s := range d.SLRs {
		n += s.Frames
	}
	return n
}

// Hops returns the number of BOUT ring hops needed to reach the given SLR
// from the primary. The SLR microcontrollers form a unidirectional ring
// rooted at the primary; each empty BOUT write advances one hop (§4.4).
func (d *Device) Hops(slr int) int {
	if slr == d.Primary {
		return 0
	}
	// Ring order: primary, then ascending indices skipping the primary.
	hop := 0
	for i := 0; i < len(d.SLRs); i++ {
		idx := (d.Primary + 1 + i) % len(d.SLRs)
		hop++
		if idx == slr {
			return hop
		}
	}
	panic(fmt.Sprintf("fpga: no SLR %d on %s", slr, d.Name))
}

// RingOrder lists the SLR indices nearest-first along the BOUT ring: the
// primary, then the SLRs 1, 2, … hops out, so RingOrder()[k] is the SLR
// with Hops == k.
func (d *Device) RingOrder() []int {
	order := make([]int, len(d.SLRs))
	for k := range order {
		order[k] = (d.Primary + k) % len(d.SLRs)
	}
	return order
}

func mkSLR(index, rows, cols int, capacity ResourceVec) *SLR {
	return &SLR{
		Index:    index,
		Rows:     rows,
		Cols:     cols,
		Frames:   rows * cols, // one frame per tile: a deliberate simplification
		Capacity: capacity,
	}
}

// slrCapacityU200 is one U200 SLR's capacity. The device totals are derived
// from the utilization percentages of the paper's Table 2, so that a design
// using the paper's absolute resource counts reproduces the paper's
// percentages exactly.
var slrCapacityU200 = ResourceVec{
	LUT:    385920,  // 3 SLRs -> 1,157,760 total (1,103,572 / 95.32%)
	LUTRAM: 201376,  // 3 SLRs -> 604,128 total (54,128 / 8.96%)
	FF:     8046080, // 3 SLRs -> 24,138,240 total (12,894,858 / 53.42%)
	BRAM:   720,     // 3 SLRs -> 2,160 total (2,120 / 98.19%)
}

// NewU200 builds an Alveo U200 model: three SLRs, primary in the middle
// (SLR1), as on the real card.
func NewU200() *Device {
	d := &Device{Name: "xcu200", Primary: 1}
	for i := 0; i < 3; i++ {
		d.SLRs = append(d.SLRs, mkSLR(i, 160, 125, slrCapacityU200))
	}
	return d
}

// NewU250 builds an Alveo U250 model: four SLRs. Used by the §4.5
// hypothesis-validation experiment showing the final SLR needs three BOUT
// pulses.
func NewU250() *Device {
	d := &Device{Name: "xcu250", Primary: 1}
	for i := 0; i < 4; i++ {
		d.SLRs = append(d.SLRs, mkSLR(i, 160, 125, slrCapacityU200))
	}
	return d
}

// Region is a rectangular reconfigurable area inside one SLR. VTI reserves
// one region per iterated partition; readback optimization scans only the
// frames of the MUT's regions.
type Region struct {
	Name string
	SLR  int
	Row  int
	Col  int
	Rows int
	Cols int
}

// FrameRange returns the half-open frame-address interval [lo, hi) covered
// by the region within its SLR, under the one-frame-per-tile layout where
// frames are numbered row-major.
func (r Region) FrameRange(dev *Device) (lo, hi int) {
	slr := dev.SLRs[r.SLR]
	lo = r.Row*slr.Cols + r.Col
	hi = (r.Row+r.Rows-1)*slr.Cols + r.Col + r.Cols
	if hi > slr.Frames {
		hi = slr.Frames
	}
	return lo, hi
}

// Tiles returns the number of tiles in the region.
func (r Region) Tiles() int { return r.Rows * r.Cols }

// Capacity returns the resources available inside the region, assuming
// resources are spread uniformly over the SLR's tiles.
func (r Region) Capacity(dev *Device) ResourceVec {
	slr := dev.SLRs[r.SLR]
	total := slr.Rows * slr.Cols
	var c ResourceVec
	for i := range c {
		c[i] = slr.Capacity[i] * r.Tiles() / total
	}
	return c
}

// Contains reports whether the region contains the tile (row, col).
func (r Region) Contains(slr, row, col int) bool {
	return slr == r.SLR &&
		row >= r.Row && row < r.Row+r.Rows &&
		col >= r.Col && col < r.Col+r.Cols
}

// Overlaps reports whether two regions share any tile.
func (r Region) Overlaps(o Region) bool {
	if r.SLR != o.SLR {
		return false
	}
	return r.Row < o.Row+o.Rows && o.Row < r.Row+r.Rows &&
		r.Col < o.Col+o.Cols && o.Col < r.Col+r.Cols
}
