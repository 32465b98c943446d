package place

import (
	"fmt"

	"zoomie/internal/fpga"
	"zoomie/internal/synth"
)

// Replace performs incremental placement: everything outside the changed
// partition keeps its tile positions and frame addresses from the previous
// placement; the changed partition is re-placed from scratch inside its
// reserved region. The change must be confined to the declared partition —
// a cell appearing, vanishing or moving anywhere else is an error,
// matching VTI's contract that recompilation scope is declared up front.
// Trailing hooks run on the finished placement, mirroring Place.
//
// The cells outside the partition are carried by table position: the new
// table and the previous one, each without the partition's cells, must
// list the same cells in the same order.
func Replace(prev *Placement, net *synth.ModuleNetlist, specs []PartitionSpec, changed string, hooks ...Hook) (*Placement, int64, error) {
	spec, ok := LookupSpec(specs, changed)
	if !ok {
		return nil, 0, fmt.Errorf("place: no partition %q", changed)
	}
	regions := prev.Regions[changed]
	if len(regions) == 0 {
		return nil, 0, fmt.Errorf("place: partition %q has no reserved region", changed)
	}

	cells := net.Flatten()
	parts := partitionsOf(cells, specs)
	p := &Placement{
		Device:      prev.Device,
		Regions:     prev.Regions,
		Cells:       cells,
		Tiles:       unplacedTiles(len(cells)),
		Parts:       parts,
		Usage:       make(map[string]fpga.ResourceVec, len(prev.Usage)),
		Utilization: make(map[string]float64, len(prev.Utilization)),
		StateMap:    fpga.NewStateMap(len(prev.StateMap.Regs), len(prev.StateMap.Mems)),
	}
	for k, v := range prev.Usage {
		p.Usage[k] = v
	}
	for k, v := range prev.Utilization {
		p.Utilization[k] = v
	}

	var bucket []int32
	var usage fpga.ResourceVec
	for i := range cells {
		if parts[i] == changed {
			bucket = append(bucket, int32(i))
			usage.Add(cells[i].Res)
		}
	}

	// The re-placed partition must still fit its reserved region with the
	// original over-provisioning.
	var capacity fpga.ResourceVec
	for _, r := range regions {
		capacity.Add(r.Capacity(prev.Device))
	}
	er := usage
	for i := range er {
		er[i] = int(float64(er[i]) * (1 + spec.c()))
	}
	if !er.Fits(capacity) {
		return nil, 0, fmt.Errorf("place: partition %q grew beyond its reserved region (need %v, have %v)",
			changed, er, capacity)
	}
	p.Usage[changed] = usage
	p.Utilization[changed] = utilization(usage, capacity)

	// The partition is re-placed before anything is carried over:
	// from-scratch placement places partitions before static logic, and
	// the refinement pass must see the same placed cells in both flows so
	// an incremental compile lands every partition cell on exactly the
	// tile a cold compile would pick — that bit-identity is what lets
	// cache-served recompiles stand in for full ones.
	if err := p.placePartition(changed, bucket); err != nil {
		return nil, 0, err
	}

	// Unchanged logic: positions and frame locations carry over verbatim,
	// the state in table order after the partition's.
	j := 0
	for i := range cells {
		if parts[i] == changed {
			continue
		}
		j = prev.nextOutside(changed, j)
		c := &cells[i]
		if j == len(prev.Cells) || prev.Cells[j].Name != c.Name {
			return nil, 0, prev.carryError(changed, c.Name, j)
		}
		p.Tiles[i] = prev.Tiles[j]
		j++
		if !c.IsState {
			continue
		}
		if loc, ok := prev.StateMap.Reg(c.Name); ok {
			if err := p.StateMap.AddReg(loc); err != nil {
				return nil, 0, err
			}
			continue
		}
		if loc, ok := prev.StateMap.Mem(c.Name); ok {
			if err := p.StateMap.AddMem(loc); err != nil {
				return nil, 0, err
			}
		}
	}
	if j = prev.nextOutside(changed, j); j < len(prev.Cells) {
		return nil, 0, fmt.Errorf("place: cell %q outside partition %q is missing", prev.Cells[j].Name, changed)
	}
	for _, h := range hooks {
		h(p)
	}
	return p, p.WorkUnits, nil
}

// nextOutside returns the first table position from j on whose cell lies
// outside the partition, or len(p.Cells).
func (p *Placement) nextOutside(partition string, j int) int {
	for j < len(p.Cells) && p.Parts[j] == partition {
		j++
	}
	return j
}

// carryError explains why the new cell name cannot be carried from
// position j of the previous placement: it is new there, or the previous
// cell at j was dropped or moved.
func (p *Placement) carryError(partition, name string, j int) error {
	for k := j; k < len(p.Cells); k++ {
		if p.Cells[k].Name == name && p.Parts[k] != partition {
			return fmt.Errorf("place: cell %q outside partition %q is missing or moved", p.Cells[j].Name, partition)
		}
	}
	return fmt.Errorf("place: cell %q is new but lies outside partition %q", name, partition)
}

// LookupSpec returns the partition spec with the given name.
func LookupSpec(specs []PartitionSpec, name string) (PartitionSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return PartitionSpec{}, false
}
