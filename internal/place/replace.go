package place

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"zoomie/internal/fpga"
	"zoomie/internal/synth"
)

// Replace performs incremental placement: everything outside the changed
// partition keeps its tile positions and frame addresses from the previous
// placement prev, which placed the netlist base; the changed partition is
// re-placed from scratch inside its reserved region. Trailing hooks run
// on the finished placement, mirroring Place.
//
// The change must be confined to the declared partition, matching VTI's
// contract that recompilation scope is declared up front. Replace checks
// that on the two netlists before it carries anything. Each module on the
// path from the top to a partition root must hold the base's own cells,
// field by field, and the base's instances in order. Every other child of
// those modules must be the base's netlist: the same checkpoint, or equal
// cell by cell. A cell added, dropped, moved or changed outside the
// partition is refused, and the error names it.
//
// The new flat table is the base's with each of the partition's subtrees
// replaced. Only those subtrees are flattened, named, resolved and placed;
// every other row is copied by position with its tile, partition and
// state entry. A carried row's drivers shift past the partition by its
// change in row count. Only the own cells of the modules on the path can
// read a name under a partition root, so only they are resolved again.
// That holds while the instance names there have no '.', which Replace
// checks. A partition whose subtrees hold another partition's logic is
// refused. A partition holding the top's own cells (instance path "") is
// flattened whole, since every row can read its names.
func Replace(prev *Placement, base, net *synth.ModuleNetlist, specs []PartitionSpec, changed string, hooks ...Hook) (*Placement, int64, error) {
	spec, ok := LookupSpec(specs, changed)
	if !ok {
		return nil, 0, fmt.Errorf("place: no partition %q", changed)
	}
	regions := prev.Regions[changed]
	if len(regions) == 0 {
		return nil, 0, fmt.Errorf("place: partition %q has no reserved region", changed)
	}
	sp, err := layOut(prev, base, net, spec, specs)
	if err != nil {
		return nil, 0, err
	}
	cells := sp.build(net)
	p := &Placement{
		Device:      prev.Device,
		Regions:     prev.Regions,
		Cells:       cells,
		Tiles:       unplacedTiles(len(cells)),
		Parts:       make([]string, len(cells)),
		Slots:       noSlots(len(cells)),
		Usage:       make(map[string]fpga.ResourceVec, len(prev.Usage)),
		Utilization: make(map[string]float64, len(prev.Utilization)),
		StateMap:    fpga.NewStateMap(0, 0),
	}
	for k, v := range prev.Usage {
		p.Usage[k] = v
	}
	for k, v := range prev.Utilization {
		p.Utilization[k] = v
	}

	var bucket []int32
	var usage fpga.ResourceVec
	for _, s := range sp.spans {
		for i := s.at; i < s.at+s.n; i++ {
			p.Parts[i] = changed
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
	if er := spec.Demand(usage); !er.Fits(capacity) {
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

	// The partition's state is named under its roots; of the carried
	// state only the path modules' own cells can be, so only they can
	// repeat a name the partition placed.
	for _, pr := range sp.path {
		for k := range pr.cells {
			j := pr.lo + k
			c := &prev.Cells[j]
			if prev.Slots[j] < 0 || !sp.underRoot(c.Name) {
				continue
			}
			if _, dup := p.StateMap.RegIndex(c.Name); dup && isReg(c) {
				return nil, 0, fmt.Errorf("fpga: duplicate register placement %q", c.Name)
			}
			if _, dup := p.StateMap.MemIndex(c.Name); dup && !isReg(c) {
				return nil, 0, fmt.Errorf("fpga: duplicate memory placement %q", c.Name)
			}
		}
	}

	// Unchanged logic: positions and frame locations carry over verbatim,
	// the state in table order after the partition's.
	regs := append(make([]fpga.RegLoc, 0, len(p.StateMap.Regs)+len(prev.StateMap.Regs)), p.StateMap.Regs...)
	mems := slices.Clone(p.StateMap.Mems)
	for _, g := range sp.carried {
		copy(p.Tiles[g.lo+g.shift:], prev.Tiles[g.lo:g.hi])
		copy(p.Parts[g.lo+g.shift:], prev.Parts[g.lo:g.hi])
		for j := g.lo; j < g.hi; j++ {
			s := prev.Slots[j]
			if s < 0 {
				continue
			}
			i := j + g.shift
			if isReg(&cells[i]) {
				p.Slots[i] = int32(len(regs))
				regs = append(regs, prev.StateMap.Regs[s])
			} else {
				p.Slots[i] = int32(len(mems))
				mems = append(mems, prev.StateMap.Mems[s])
			}
		}
	}
	if p.StateMap, err = fpga.StateMapOf(regs, mems); err != nil {
		return nil, 0, err
	}
	for _, h := range hooks {
		h(p)
	}
	return p, p.WorkUnits, nil
}

// A splice lays a recompile's flat table out as its base's, prev.Cells,
// with each of the partition's subtrees replaced.
type splice struct {
	prev      *Placement
	partition string
	roots     []string
	spans     []span    // the partition's subtrees, in table order
	carried   []run     // the base's rows between them
	path      []pathRun // own cells of the modules on the path to a root
	// top: the partition holds the top's own cells (a root ""). Names of
	// every row can then read them, so the table is flattened whole.
	top bool
}

// A span is one run of partition rows: the base's rows [lo, hi), replaced
// by n new rows from row at on, which flatten net at path.
type span struct {
	lo, hi, n, at int
	path          string
	net           *synth.ModuleNetlist
	sub           *synth.Subtree
}

// A run is the base's rows [lo, hi), carried to rows lo+shift on.
type run struct{ lo, hi, shift int }

// A pathRun is the own cells of one module on the path to a root: equal
// to the base's, which start at base row lo.
type pathRun struct {
	prefix string
	lo     int
	cells  []synth.Cell
}

// layOut checks that net equals base outside the partition and finds the
// partition's subtrees in the base's table.
func layOut(prev *Placement, base, net *synth.ModuleNetlist, spec PartitionSpec, specs []PartitionSpec) (*splice, error) {
	sp := &splice{prev: prev, partition: spec.Name, roots: spec.Paths}
	if err := sp.checkNesting(specs); err != nil {
		return nil, err
	}
	end, err := sp.walk(net, base, "", 0)
	if err == errOutside {
		err = sp.diff(net, base)
	}
	if err != nil {
		return nil, err
	}
	if end != len(prev.Cells) {
		return nil, fmt.Errorf("place: the base netlist has %d cells, its placement %d", end, len(prev.Cells))
	}
	j, shift := 0, 0
	for k := range sp.spans {
		s := &sp.spans[k]
		sp.carried = append(sp.carried, run{j, s.lo, shift})
		s.at = s.lo + shift
		j, shift = s.hi, shift+s.n-(s.hi-s.lo)
	}
	sp.carried = append(sp.carried, run{j, len(prev.Cells), shift})
	return sp, nil
}

// checkNesting refuses a partition whose subtrees hold another
// partition's logic: every path at or under one of its roots must belong
// to it, so its rows are exactly its subtrees.
func (sp *splice) checkNesting(specs []PartitionSpec) error {
	for _, r := range sp.roots {
		for _, s := range specs {
			for _, q := range s.Paths {
				if (q == r || r != "" && under(q, r)) && partitionFor(q, specs) != sp.partition {
					return fmt.Errorf("place: partition %q nests with partition %q at instance path %q",
						sp.partition, partitionFor(q, specs), q)
				}
			}
		}
	}
	return nil
}

// errOutside reports that the netlists differ outside the partition;
// diff says where.
var errOutside = errors.New("place: the netlist differs outside the partition")

// walk lays out the module pair at prefix, a module on the path to a
// root whose first own cell is base row at, and returns the base row
// after the pair's subtree.
func (sp *splice) walk(n, b *synth.ModuleNetlist, prefix string, at int) (int, error) {
	switch {
	case prefix == "" && sp.isRoot(""):
		sp.spans = append(sp.spans, span{lo: at, hi: at + len(b.Cells), n: len(n.Cells)})
		sp.top = true
	case !slices.EqualFunc(n.Cells, b.Cells, synth.Cell.Equal):
		return 0, errOutside
	default:
		sp.path = append(sp.path, pathRun{prefix: prefix, lo: at, cells: b.Cells})
	}
	at += len(b.Cells)
	if len(n.Children) != len(b.Children) {
		return 0, errOutside
	}
	for k, ch := range n.Children {
		bc := b.Children[k]
		if ch.Name != bc.Name {
			return 0, errOutside
		}
		p := synth.FlatName(prefix, ch.Name)
		if strings.Contains(ch.Name, ".") {
			return 0, fmt.Errorf("place: instance %q on the path to partition %q has a '.' in its name", p, sp.partition)
		}
		switch {
		case sp.isRoot(p):
			sp.spans = append(sp.spans, span{lo: at, hi: at + bc.Netlist.TotalCellCount, n: ch.Netlist.TotalCellCount, path: p, net: ch.Netlist})
		case sp.onPath(p):
			if _, err := sp.walk(ch.Netlist, bc.Netlist, p, at); err != nil {
				return 0, err
			}
		case !ch.Netlist.Equal(bc.Netlist):
			return 0, errOutside
		}
		at += bc.Netlist.TotalCellCount
	}
	return at, nil
}

func (sp *splice) isRoot(path string) bool { return slices.Contains(sp.roots, path) }

// onPath reports whether path is a strict ancestor of a root.
func (sp *splice) onPath(path string) bool {
	for _, r := range sp.roots {
		if under(r, path) {
			return true
		}
	}
	return false
}

// underRoot reports whether a flat name lies under a (non-top) root.
func (sp *splice) underRoot(name string) bool {
	for _, r := range sp.roots {
		if r != "" && (name == r || under(name, r)) {
			return true
		}
	}
	return false
}

// under reports whether name lies strictly under instance path p; every
// name lies under the top ("").
func under(name, p string) bool {
	if p == "" {
		return name != ""
	}
	return len(name) > len(p) && name[len(p)] == '.' && strings.HasPrefix(name, p)
}

// row maps a carried base row to its row in the new table.
func (sp *splice) row(j int32) int32 {
	out := j
	for _, s := range sp.spans {
		if int(j) < s.lo {
			break
		}
		out += int32(s.n - (s.hi - s.lo))
	}
	return out
}

// build returns the new flat table.
func (sp *splice) build(net *synth.ModuleNetlist) []synth.FlatCell {
	if sp.top {
		return net.Flatten()
	}
	prev := sp.prev.Cells
	total, rows := len(prev), 0
	for k := range sp.spans {
		s := &sp.spans[k]
		s.sub = s.net.FlattenAt(s.path)
		total += s.n - (s.hi - s.lo)
		rows += s.n
	}

	// Names under a root, in table order so the last row wins: the path
	// modules' own cells that carry one, then the partition's rows.
	index := make(map[string]int32, rows)
	pi := 0
	indexPath := func(run pathRun) {
		for k := range run.cells {
			j := int32(run.lo + k)
			if name := prev[j].Name; sp.underRoot(name) {
				index[name] = sp.row(j)
			}
		}
	}
	for _, s := range sp.spans {
		for ; pi < len(sp.path) && sp.path[pi].lo < s.lo; pi++ {
			indexPath(sp.path[pi])
		}
		for k := range s.sub.Cells {
			index[s.sub.Cells[k].Name] = int32(s.at + k)
		}
	}
	for ; pi < len(sp.path); pi++ {
		indexPath(sp.path[pi])
	}

	cells := make([]synth.FlatCell, 0, total)
	j := 0
	for _, s := range sp.spans {
		s.sub.Resolve(index)
		cells = append(cells, prev[j:s.lo]...)
		cells = append(cells, s.sub.Cells...)
		j = s.hi
	}
	cells = append(cells, prev[j:]...)

	// Carried drivers shift past the partition; a row none of whose
	// drivers moved keeps the base's.
	var buf []int32
	for _, g := range sp.carried {
		for i := g.lo + g.shift; i < g.hi+g.shift; i++ {
			ds := cells[i].Drivers
			if cap(buf)-len(buf) < len(ds) {
				buf = make([]int32, 0, max(4096, len(ds)))
			}
			start, moved := len(buf), false
			for _, d := range ds {
				nd := sp.row(d)
				moved = moved || nd != d
				buf = append(buf, nd)
			}
			if moved {
				cells[i].Drivers = buf[start:len(buf):len(buf)]
			} else {
				buf = buf[:start]
			}
		}
	}

	// The path modules' own cells are resolved again.
	for _, run := range sp.path {
		for k := range run.cells {
			j := int32(run.lo + k)
			cells[sp.row(j)].Drivers = sp.redrive(run.prefix, run.cells[k].Fanin, prev[j].Drivers, index)
		}
	}
	return cells
}

// redrive resolves the fanins of a path module's own cell at prefix: a
// name under a root against the new rows in index, any other name to the
// row the base resolved it to. That row is the next of the base's
// drivers, was, if it carries the name; a fanin the base left unresolved
// stays so.
func (sp *splice) redrive(prefix string, fanins []string, was []int32, index map[string]int32) []int32 {
	var out []int32
	k := 0
	for _, f := range fanins {
		key := synth.FlatName(prefix, f)
		old := int32(-1)
		if k < len(was) && sp.prev.Cells[was[k]].Name == key {
			old = was[k]
			k++
		}
		if sp.underRoot(key) {
			if d, ok := index[key]; ok {
				out = append(out, d)
			}
		} else if old >= 0 {
			out = append(out, sp.row(old))
		}
	}
	return out
}

// diff explains why net and base differ outside the partition: it names
// the first cell outside the partition, in table order, that was added,
// dropped, moved or changed.
func (sp *splice) diff(net, base *synth.ModuleNetlist) error {
	news, olds := sp.outside(net), sp.outside(base)
	j := 0
	for _, c := range news {
		if j == len(olds) || olds[j].name != c.name {
			for k := j; k < len(olds); k++ {
				if olds[k].name == c.name {
					return fmt.Errorf("place: cell %q outside partition %q is missing or moved", olds[j].name, sp.partition)
				}
			}
			return fmt.Errorf("place: cell %q is new but lies outside partition %q", c.name, sp.partition)
		}
		if c.path != olds[j].path || !c.cell.Equal(*olds[j].cell) {
			return fmt.Errorf("place: cell %q outside partition %q changed", c.name, sp.partition)
		}
		j++
	}
	if j < len(olds) {
		return fmt.Errorf("place: cell %q outside partition %q is missing", olds[j].name, sp.partition)
	}
	return fmt.Errorf("place: the instances outside partition %q differ from the base's", sp.partition)
}

// An outRow is one cell outside the partition, with its flat name.
type outRow struct {
	name, path string
	cell       *synth.Cell
}

// outside lists n's cells outside the partition in table order.
func (sp *splice) outside(n *synth.ModuleNetlist) []outRow {
	var rows []outRow
	var walk func(m *synth.ModuleNetlist, prefix string)
	walk = func(m *synth.ModuleNetlist, prefix string) {
		if prefix != "" || !sp.isRoot("") {
			for i := range m.Cells {
				rows = append(rows, outRow{synth.FlatName(prefix, m.Cells[i].Name), prefix, &m.Cells[i]})
			}
		}
		for _, ch := range m.Children {
			if p := synth.FlatName(prefix, ch.Name); !sp.isRoot(p) {
				walk(ch.Netlist, p)
			}
		}
	}
	walk(n, "")
	return rows
}
