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
// a cell appearing or moving anywhere else is an error, matching VTI's
// contract that recompilation scope is declared up front. Trailing hooks
// run on the finished placement, mirroring Place.
func Replace(prev *Placement, net *synth.ModuleNetlist, specs []PartitionSpec, changed string, hooks ...Hook) (*Placement, int64, error) {
	spec, ok := LookupSpec(specs, changed)
	if !ok {
		return nil, 0, fmt.Errorf("place: no partition %q", changed)
	}
	regions := prev.Regions[changed]
	if len(regions) == 0 {
		return nil, 0, fmt.Errorf("place: partition %q has no reserved region", changed)
	}

	p := &Placement{
		Device:      prev.Device,
		Regions:     prev.Regions,
		CellTile:    make(map[string]TilePos, len(prev.CellTile)),
		PartitionOf: make(map[string]string, len(prev.PartitionOf)),
		Usage:       make(map[string]fpga.ResourceVec, len(prev.Usage)),
		Utilization: make(map[string]float64, len(prev.Utilization)),
		StateMap:    fpga.NewStateMap(),
	}
	for k, v := range prev.Usage {
		p.Usage[k] = v
	}
	for k, v := range prev.Utilization {
		p.Utilization[k] = v
	}

	// Split the flattened netlist into the re-placed bucket and the
	// carried-over remainder. Carry-over is applied only after the
	// partition is re-placed: from-scratch placement places partitions
	// before static logic, and the refinement pass must see the same
	// CellTile context in both flows so an incremental compile lands every
	// partition cell on exactly the tile a cold compile would pick —
	// that bit-identity is what lets cache-served recompiles stand in for
	// full ones.
	cells := net.Flat()
	parts := partitionsOf(cells, specs)
	var bucket, carry []int32
	var carryTiles []TilePos
	var usage fpga.ResourceVec
	for i := range cells {
		c := &cells[i]
		if parts[i] == changed {
			bucket = append(bucket, int32(i))
			usage.Add(c.Res)
			continue
		}
		pos, had := prev.CellTile[c.Name]
		if !had {
			return nil, 0, fmt.Errorf("place: cell %q is new but lies outside partition %q", c.Name, changed)
		}
		carry = append(carry, int32(i))
		carryTiles = append(carryTiles, pos)
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

	if err := p.placePartition(changed, cells, bucket); err != nil {
		return nil, 0, err
	}

	// Unchanged logic: positions and frame locations carry over verbatim.
	for k, ci := range carry {
		c := &cells[ci]
		p.CellTile[c.Name] = carryTiles[k]
		p.PartitionOf[c.Name] = parts[ci]
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
	for _, h := range hooks {
		h(p)
	}
	return p, p.WorkUnits, nil
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
