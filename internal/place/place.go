// Package place assigns synthesized cells to tiles of an FPGA device,
// honoring VTI's partition discipline: every iterated (debuggable)
// partition gets its own reserved rectangular region, sized by the
// over-provisioning formula ER = resource × (1 + c) and constrained to a
// single SLR so the debugged logic never crosses a chiplet boundary
// (paper §3.5). The static remainder of the design fills the rest of the
// device. Placement also produces the StateMap — the logic-location
// metadata that lets readback data be matched to RTL names.
package place

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"zoomie/internal/fpga"
	"zoomie/internal/synth"
)

// DefaultOverProvision is the default over-provisioning coefficient c.
const DefaultOverProvision = 0.30

// StaticPartition is the reserved name for all logic not assigned to an
// iterated partition.
const StaticPartition = "static"

// PartitionSpec names one iterated partition: the designer's declaration
// of which instance subtrees they intend to recompile during debugging.
type PartitionSpec struct {
	Name  string
	Paths []string // instance paths included in the partition
	// OverProvision is the coefficient c; 0 means DefaultOverProvision.
	OverProvision float64
}

func (p PartitionSpec) c() float64 {
	if p.OverProvision == 0 {
		return DefaultOverProvision
	}
	return p.OverProvision
}

// TilePos locates a cell on the device.
type TilePos struct {
	SLR, Row, Col int
}

// unplaced marks a cell no partition has placed yet.
var unplaced = TilePos{SLR: -1}

// unplacedTiles returns n tiles, every one unplaced.
func unplacedTiles(n int) []TilePos {
	tiles := make([]TilePos, n)
	for i := range tiles {
		tiles[i] = unplaced
	}
	return tiles
}

// noSlots returns n state slots, every one empty.
func noSlots(n int) []int32 {
	slots := make([]int32, n)
	for i := range slots {
		slots[i] = -1
	}
	return slots
}

// isReg reports whether a state cell is placed as a register: flip-flops
// and no RAM. Other state cells with a memory shape are placed as
// memories.
func isReg(c *synth.FlatCell) bool {
	return c.Res[fpga.FF] > 0 && c.Res[fpga.BRAM] == 0 && c.Res[fpga.LUTRAM] == 0
}

// Placement is the result of placing a design.
type Placement struct {
	Device *fpga.Device

	// Regions maps each partition name to its reserved regions. Iterated
	// partitions have exactly one region; the static partition may have
	// one region per SLR.
	Regions map[string][]fpga.Region

	// Cells is the placed netlist's flat cell table, as
	// synth.ModuleNetlist.Flatten lays it out, built once per compile:
	// Place flattens the whole netlist, and Replace flattens only the
	// changed partition and carries every other row from its base's
	// table. Routing, timing and the flows' charges read it from here.
	// Callers must not modify it; carried rows share the base's strings
	// and, where no driver moved, its Drivers.
	Cells []synth.FlatCell

	// Tiles[i] locates Cells[i], and Parts[i] names its partition.
	Tiles []TilePos
	Parts []string

	// Slots[i] is Cells[i]'s entry in StateMap: its position in Regs, or
	// for a memory in Mems; -1 if it has none.
	Slots []int32

	// Usage is per-partition resource usage (without over-provisioning).
	Usage map[string]fpga.ResourceVec

	// Utilization is the per-partition ratio of usage to reserved region
	// capacity, per resource — the congestion input to the timing model.
	Utilization map[string]float64

	// StateMap locates every register and memory in the frame plane.
	StateMap *fpga.StateMap

	// WorkUnits counts placement effort (cells placed, swaps attempted).
	WorkUnits int64
}

// DebugSLR returns the SLR hosting the named iterated partition, or -1.
func (p *Placement) DebugSLR(partition string) int {
	rs := p.Regions[partition]
	if len(rs) == 0 {
		return -1
	}
	return rs[0].SLR
}

// Hook observes — and may mutate — a finished placement before it is
// returned. Hooks model legalization bugs for the toolchain self-checker:
// swapped state-map nets, shifted bit offsets, dropped map entries, cells
// leaked across partition boundaries. A hook that needs to no-op (its
// victim absent from this design) simply returns without touching p.
type Hook func(p *Placement)

// Place places the netlist onto the device. Iterated partitions are
// placed first, all on one SLR; static logic fills remaining space on all
// SLRs, nearest the primary first. Passing no specs places the whole
// design as static. Trailing hooks, if any, run in order on the finished
// placement.
func Place(net *synth.ModuleNetlist, dev *fpga.Device, specs []PartitionSpec, hooks ...Hook) (*Placement, error) {
	if err := validateSpecs(specs); err != nil {
		return nil, err
	}
	cells := net.Flatten()
	parts := partitionsOf(cells, specs)
	p := &Placement{
		Device:      dev,
		Regions:     make(map[string][]fpga.Region),
		Cells:       cells,
		Tiles:       unplacedTiles(len(cells)),
		Parts:       parts,
		Slots:       noSlots(len(cells)),
		Usage:       make(map[string]fpga.ResourceVec),
		Utilization: make(map[string]float64),
		StateMap:    fpga.NewStateMap(0, 0),
	}

	// Pass 1: bucket cells by partition and accumulate usage.
	buckets := make(map[string][]int32)
	for i := range cells {
		part := parts[i]
		buckets[part] = append(buckets[part], int32(i))
		u := p.Usage[part]
		u.Add(cells[i].Res)
		p.Usage[part] = u
	}

	// Pass 2: reserve regions. Iterated partitions share one SLR, chosen
	// as the SLR with the most tiles free after fitting all of them.
	nextRow := make([]int, len(dev.SLRs))
	var iterated []string
	for _, s := range specs {
		iterated = append(iterated, s.Name)
	}
	sort.Strings(iterated)

	if len(specs) > 0 {
		debugSLR, err := chooseDebugSLR(dev, specs, p.Usage)
		if err != nil {
			return nil, err
		}
		for _, name := range iterated {
			spec := specByName(specs, name)
			rows, util, err := rowsFor(dev, debugSLR, p.Usage[name], spec.c())
			if err != nil {
				return nil, fmt.Errorf("place: partition %q: %w", name, err)
			}
			slr := dev.SLRs[debugSLR]
			if nextRow[debugSLR]+rows > slr.Rows {
				return nil, fmt.Errorf("place: partition %q does not fit on SLR %d", name, debugSLR)
			}
			region := fpga.Region{
				Name: name, SLR: debugSLR,
				Row: nextRow[debugSLR], Col: 0,
				Rows: rows, Cols: slr.Cols,
			}
			nextRow[debugSLR] += rows
			p.Regions[name] = []fpga.Region{region}
			p.Utilization[name] = util
		}
	}

	// Static regions: all remaining rows on every SLR, nearest the
	// primary first. Static cells and state fill the first region first,
	// so the Debug Controller and the design's state land where the
	// cable reaches them with the fewest BOUT hops.
	var staticRegions []fpga.Region
	var staticCap fpga.ResourceVec
	for _, i := range dev.RingOrder() {
		slr := dev.SLRs[i]
		if nextRow[i] >= slr.Rows {
			continue
		}
		r := fpga.Region{
			Name: StaticPartition, SLR: i,
			Row: nextRow[i], Col: 0,
			Rows: slr.Rows - nextRow[i], Cols: slr.Cols,
		}
		staticRegions = append(staticRegions, r)
		staticCap.Add(r.Capacity(dev))
	}
	if u := p.Usage[StaticPartition]; !u.Fits(staticCap) {
		return nil, fmt.Errorf("place: static logic %v exceeds remaining capacity %v", u, staticCap)
	}
	p.Regions[StaticPartition] = staticRegions
	p.Utilization[StaticPartition] = utilization(p.Usage[StaticPartition], staticCap)

	// Pass 3: assign cells to tiles and state to frames, region by region.
	names := append([]string{}, iterated...)
	names = append(names, StaticPartition)
	for _, name := range names {
		if err := p.placePartition(name, buckets[name]); err != nil {
			return nil, err
		}
	}
	for _, h := range hooks {
		h(p)
	}
	return p, nil
}

// SwapRegAddrs exchanges the frame addresses of two placed registers in
// the state map, keeping each register's width — the shape of a
// legalization pass swapping two nets. It refuses (returning false) if
// either register is unplaced or a swapped register would span its frame.
func (p *Placement) SwapRegAddrs(a, b string) bool {
	sm := p.StateMap
	ia, oka := sm.RegIndex(a)
	ib, okb := sm.RegIndex(b)
	if !oka || !okb || ia == ib {
		return false
	}
	ra, rb := sm.Regs[ia], sm.Regs[ib]
	if ra.Addr == rb.Addr ||
		rb.Addr.Bit+ra.Width > fpga.FrameBits ||
		ra.Addr.Bit+rb.Width > fpga.FrameBits {
		return false
	}
	regs := slices.Clone(sm.Regs)
	regs[ia].Addr, regs[ib].Addr = rb.Addr, ra.Addr
	return p.rebuildState(regs)
}

// DropReg removes one register from the state map. Reports whether the
// register was present.
func (p *Placement) DropReg(name string) bool {
	i, ok := p.StateMap.RegIndex(name)
	if !ok || !p.rebuildState(slices.Delete(slices.Clone(p.StateMap.Regs), i, i+1)) {
		return false
	}
	for k := range p.Cells {
		if s := p.Slots[k]; s >= int32(i) && isReg(&p.Cells[k]) {
			if s == int32(i) {
				p.Slots[k] = -1
			} else {
				p.Slots[k]--
			}
		}
	}
	return true
}

// rebuildState replaces the state map with one placing regs and the old
// memories, built through the exported fpga API so that the map's name
// and frame indexes agree with its Regs. Reports whether every placement
// was accepted; on refusal the old map stays.
func (p *Placement) rebuildState(regs []fpga.RegLoc) bool {
	sm, err := fpga.StateMapOf(regs, slices.Clone(p.StateMap.Mems))
	if err != nil {
		return false
	}
	p.StateMap = sm
	return true
}

func validateSpecs(specs []PartitionSpec) error {
	seenName := make(map[string]bool)
	seenPath := make(map[string]bool)
	for _, s := range specs {
		if s.Name == "" || s.Name == StaticPartition {
			return fmt.Errorf("place: invalid partition name %q", s.Name)
		}
		if seenName[s.Name] {
			return fmt.Errorf("place: duplicate partition %q", s.Name)
		}
		seenName[s.Name] = true
		if len(s.Paths) == 0 {
			return fmt.Errorf("place: partition %q has no instance paths", s.Name)
		}
		for _, path := range s.Paths {
			if seenPath[path] {
				return fmt.Errorf("place: instance path %q in two partitions", path)
			}
			seenPath[path] = true
		}
	}
	return nil
}

func specByName(specs []PartitionSpec, name string) PartitionSpec {
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	return PartitionSpec{}
}

// partitionFor assigns an instance path to the partition whose path
// prefix matches.
func partitionFor(path string, specs []PartitionSpec) string {
	for _, s := range specs {
		for _, p := range s.Paths {
			if path == p || strings.HasPrefix(path, p+".") {
				return s.Name
			}
		}
	}
	return StaticPartition
}

// partitionsOf returns each flat cell's partition. A module's cells sit
// together in the table, so the path is matched once per run of cells.
func partitionsOf(cells []synth.FlatCell, specs []PartitionSpec) []string {
	out := make([]string, len(cells))
	path, part := "", partitionFor("", specs)
	for i := range cells {
		if cells[i].Path != path {
			path = cells[i].Path
			part = partitionFor(path, specs)
		}
		out[i] = part
	}
	return out
}

// chooseDebugSLR picks the SLR hosting all iterated partitions: the one
// whose capacity covers their combined over-provisioned demand with the
// most slack. Debugged modules deliberately share one chiplet (§3.5).
// Candidates are walked nearest the primary first, so equal slack goes
// to the SLR with fewer BOUT hops.
func chooseDebugSLR(dev *fpga.Device, specs []PartitionSpec, usage map[string]fpga.ResourceVec) (int, error) {
	var demand fpga.ResourceVec
	for _, s := range specs {
		u := usage[s.Name]
		for i := range u {
			u[i] = int(float64(u[i]) * (1 + s.c()))
		}
		demand.Add(u)
	}
	best, bestSlack := -1, -1.0
	for _, i := range dev.RingOrder() {
		slr := dev.SLRs[i]
		if !demand.Fits(slr.Capacity) {
			continue
		}
		slack := 1 - utilization(demand, slr.Capacity)
		if slack > bestSlack {
			best, bestSlack = i, slack
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("place: no SLR can host the debug partitions (demand %v)", demand)
	}
	return best, nil
}

// rowsFor sizes a partition's region: enough full-width rows that every
// resource type satisfies Atotal >= max_resource ER (§3.5).
func rowsFor(dev *fpga.Device, slrIdx int, usage fpga.ResourceVec, c float64) (rows int, util float64, err error) {
	slr := dev.SLRs[slrIdx]
	perRow := fpga.Region{SLR: slrIdx, Rows: 1, Cols: slr.Cols}.Capacity(dev)
	rows = 1
	for _, res := range fpga.Resources() {
		if usage[res] == 0 {
			continue
		}
		er := int(float64(usage[res]) * (1 + c))
		if perRow[res] == 0 {
			return 0, 0, fmt.Errorf("SLR %d has no %s capacity", slrIdx, res)
		}
		need := (er + perRow[res] - 1) / perRow[res]
		if need > rows {
			rows = need
		}
	}
	if rows > slr.Rows {
		return 0, 0, fmt.Errorf("needs %d rows, SLR has %d", rows, slr.Rows)
	}
	region := fpga.Region{SLR: slrIdx, Rows: rows, Cols: slr.Cols}
	return rows, utilization(usage, region.Capacity(dev)), nil
}

// utilization returns the max per-resource usage/capacity ratio.
func utilization(usage, capacity fpga.ResourceVec) float64 {
	worst := 0.0
	for i := range usage {
		if capacity[i] == 0 {
			continue
		}
		r := float64(usage[i]) / float64(capacity[i])
		if r > worst {
			worst = r
		}
	}
	return worst
}

// placePartition spreads the flat cells listed in idx over the
// partition's region tiles round-robin, allocates frame space for its
// state, and runs a bounded deterministic refinement pass for small
// partitions.
func (p *Placement) placePartition(name string, idx []int32) error {
	regions := p.Regions[name]
	if len(regions) == 0 {
		if len(idx) == 0 {
			return nil
		}
		return fmt.Errorf("place: partition %q has cells but no region", name)
	}
	// Enumerate tiles across all of the partition's regions.
	var tiles []TilePos
	for _, r := range regions {
		for row := r.Row; row < r.Row+r.Rows; row++ {
			for col := r.Col; col < r.Col+r.Cols; col++ {
				tiles = append(tiles, TilePos{SLR: r.SLR, Row: row, Col: col})
			}
		}
	}
	// Frame allocators, one per region.
	allocs := make([]*fpga.FrameAllocator, len(regions))
	for i, r := range regions {
		lo, hi := r.FrameRange(p.Device)
		allocs[i] = fpga.NewFrameAllocator(r.SLR, lo, hi)
	}
	allocBits := func(width int) (fpga.BitAddr, error) {
		var lastErr error
		for _, a := range allocs {
			addr, err := a.AllocBits(width)
			if err == nil {
				return addr, nil
			}
			lastErr = err
		}
		return fpga.BitAddr{}, lastErr
	}
	allocFrames := func(n int) (int, int, error) {
		var lastErr error
		for i, a := range allocs {
			start, err := a.AllocFrames(n)
			if err == nil {
				return regions[i].SLR, start, nil
			}
			lastErr = err
		}
		return 0, 0, lastErr
	}

	// Dense monotonic packing: cells fill only as many tiles as their
	// resources demand, in netlist order, so neighbouring cells land on
	// the same or adjacent tiles — the locality a wirelength-driven placer
	// converges to.
	tilesNeeded := 1
	if len(regions) > 0 {
		perTile := regions[0].Capacity(p.Device)
		for i := range perTile {
			perTile[i] /= regions[0].Tiles()
		}
		usage := p.Usage[name]
		for _, res := range fpga.Resources() {
			if perTile[res] == 0 || usage[res] == 0 {
				continue
			}
			if need := (usage[res] + perTile[res] - 1) / perTile[res]; need > tilesNeeded {
				tilesNeeded = need
			}
		}
		if tilesNeeded > len(tiles) {
			tilesNeeded = len(tiles)
		}
	}
	density := (len(idx) + tilesNeeded - 1) / tilesNeeded
	if density < 1 {
		density = 1
	}
	// Dense state frames: registers pack into consecutive frames in
	// netlist order, and memories take whole frames after them, the way
	// hardware keeps BRAM contents in a frame block of their own. A frame
	// never holds state of two top-level instances, so the Debug
	// Controller and each assertion monitor keep frames of their own: a
	// seek rewrites the controller's registers, and must not rewrite a
	// design frame whose values did not change.
	var mems []int32
	inst := ""
	for i, ci := range idx {
		c := &p.Cells[ci]
		ti := i / density
		if ti >= len(tiles) {
			ti = len(tiles) - 1
		}
		p.Tiles[ci] = tiles[ti]
		p.WorkUnits++

		if !c.IsState {
			continue
		}
		if isReg(c) {
			if top, _, _ := strings.Cut(c.Path, "."); top != inst {
				for _, a := range allocs {
					a.CloseFrame()
				}
				inst = top
			}
			w := c.Res[fpga.FF]
			addr, err := allocBits(w)
			if err != nil {
				return fmt.Errorf("place: register %q: %w", c.Name, err)
			}
			p.Slots[ci] = int32(len(p.StateMap.Regs))
			if err := p.StateMap.AddReg(fpga.RegLoc{Name: c.Name, Width: w, Addr: addr}); err != nil {
				return err
			}
			continue
		}
		if c.MemWidth > 0 {
			mems = append(mems, ci)
		}
	}
	for _, ci := range mems {
		c := &p.Cells[ci]
		loc := fpga.MemLoc{Name: c.Name, Width: c.MemWidth, Depth: c.MemDepth}
		slr, start, err := allocFrames(loc.FrameCount())
		if err != nil {
			return fmt.Errorf("place: memory %q: %w", c.Name, err)
		}
		loc.SLR, loc.StartFrame = slr, start
		p.Slots[ci] = int32(len(p.StateMap.Mems))
		if err := p.StateMap.AddMem(loc); err != nil {
			return err
		}
	}

	// Deterministic HPWL refinement for modest partitions: swap pairs and
	// keep improvements. This is annealing's inner move at temperature
	// zero, bounded so big static partitions stay cheap.
	if len(idx) > 1 && len(idx) <= 2000 {
		p.refine(idx)
	}
	return nil
}

// refine performs bounded greedy swap refinement on the partition's flat
// cells listed in idx. A fanin's wirelength counts only once its driver
// is placed: partitions placed later are not yet on the device.
func (p *Placement) refine(idx []int32) {
	rng := rand.New(rand.NewSource(1))
	tiles := p.Tiles
	cost := func(i int32) int64 {
		pos := tiles[i]
		var sum int64
		for _, d := range p.Cells[i].Drivers {
			if fp := tiles[d]; fp != unplaced {
				sum += int64(abs(pos.Row-fp.Row) + abs(pos.Col-fp.Col))
			}
		}
		return sum
	}
	passes := 2
	for pass := 0; pass < passes; pass++ {
		for i := 0; i < len(idx); i++ {
			j := rng.Intn(len(idx))
			if i == j {
				continue
			}
			a, b := idx[i], idx[j]
			before := cost(a) + cost(b)
			tiles[a], tiles[b] = tiles[b], tiles[a]
			after := cost(a) + cost(b)
			if after >= before {
				tiles[a], tiles[b] = tiles[b], tiles[a]
			}
			p.WorkUnits++
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
