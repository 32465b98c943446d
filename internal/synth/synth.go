// Package synth lowers RTL to an FPGA netlist: LUTs, flip-flops,
// distributed LUTRAM, and block RAM. Mapping is hierarchical — each unique
// module is synthesized once and instantiated by reference — which is both
// how VTI's per-partition compilation reuses work and what makes
// million-gate manycore designs affordable to account for.
//
// Cells are clustered at assignment/register granularity: one cell is the
// mapped logic cone of one RTL assignment or register, carrying a resource
// vector, a logic-depth estimate in LUT levels, and its fanin signal
// names. Placement, routing and timing all operate on these cells.
package synth

import (
	"fmt"
	"slices"
	"sync"

	"zoomie/internal/fpga"
	"zoomie/internal/rtl"
)

// Cell is one mapped logic cluster inside a module.
type Cell struct {
	// Name is the local signal (or memory) the cell drives.
	Name string
	// Res is the cell's resource usage.
	Res fpga.ResourceVec
	// Fanin lists local signal names the cell's logic reads.
	Fanin []string
	// IsState marks registers and memories (timing endpoints).
	IsState bool
	// Levels is the logic depth of the cell's cone in LUT levels.
	Levels int
	// MemWidth and MemDepth are set for memory cells; placement uses them
	// to allocate frame space.
	MemWidth, MemDepth int
}

// ChildRef is an instantiated submodule inside a module netlist.
type ChildRef struct {
	Name    string // instance name
	Netlist *ModuleNetlist
}

// ModuleNetlist is the synthesized form of one module: its local cells
// plus references to synthesized children. It keeps nothing of the RTL
// it was mapped from, so a checkpoint store that holds it holds no design.
type ModuleNetlist struct {
	Cells    []Cell
	Children []ChildRef

	// LocalUsage counts this module's own cells.
	LocalUsage fpga.ResourceVec
	// TotalUsage includes all children, recursively.
	TotalUsage fpga.ResourceVec
	// LocalCellCount and TotalCellCount mirror the usage split.
	LocalCellCount int
	TotalCellCount int
}

// Cache memoizes module synthesis so shared modules are mapped once. It
// is backed by a content-addressed checkpoint Store: modules are keyed by
// their canonical digest, not pointer identity, so two independently
// constructed copies of the same module — another parse of the same
// source, another client's design sharing a common block — reuse one
// checkpoint. A fast pointer memo sits in front of the store for repeat
// lookups within one hierarchy; it keeps every module it has seen, so a
// cache should live no longer than the compile it serves.
//
// Cache is safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	store    Store
	byModule map[*rtl.Module]*ModuleNetlist
	fromHit  map[*rtl.Module]bool
	dg       *digester
	hook     NetlistHook
	mapped   int
	hits     int
	misses   int
}

// NetlistHook observes — and may mutate — a freshly mapped module netlist
// before resource accounting runs and before the checkpoint is saved to
// the store. It fires only on store misses: checkpoints served from the
// store are returned untouched, exactly as a buggy techmapping pass would
// corrupt new work while leaving old artifacts alone. The toolchain
// self-checker uses it to plant seeded semantic faults (wrong LUT mask,
// dropped fanin) inside synthesis.
type NetlistHook func(m *rtl.Module, n *ModuleNetlist)

// SetNetlistHook installs (or, with nil, clears) the cache's netlist hook.
func (c *Cache) SetNetlistHook(h NetlistHook) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hook = h
}

// NewCache returns a cache over a fresh private unbounded store.
func NewCache() *Cache { return NewCacheWith(NewMemStore(0)) }

// NewCacheWith returns a cache backed by the given checkpoint store —
// typically a store shared across sessions so checkpoints outlive any one
// compile.
func NewCacheWith(store Store) *Cache {
	return &Cache{
		store:    store,
		byModule: make(map[*rtl.Module]*ModuleNetlist),
		fromHit:  make(map[*rtl.Module]bool),
		dg:       newDigester(),
	}
}

// CellCount returns the number of cells this cache has mapped itself —
// the real synthesis work performed. Checkpoints loaded from the store
// (digest hits) cost nothing and are not counted.
func (c *Cache) CellCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mapped
}

// Hits and Misses count store-level digest lookups resolved by this
// cache (pointer-memo repeats excluded).
func (c *Cache) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Misses is the store-miss counterpart of Hits.
func (c *Cache) Misses() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}

// Digest returns m's content digest, memoized alongside the netlists.
func (c *Cache) Digest(m *rtl.Module) Digest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dg.module(m)
}

// WasHit reports whether m's netlist came out of the checkpoint store
// rather than being mapped by this cache. Compile-time accounting uses it
// to charge only cold modules.
func (c *Cache) WasHit(m *rtl.Module) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fromHit[m]
}

// Synthesize maps a whole design hierarchically, returning the top
// module's netlist.
func Synthesize(d *rtl.Design) (*ModuleNetlist, error) {
	return NewCache().Module(d.Top)
}

// Module synthesizes one module (memoized by pointer, checkpointed by
// content digest).
func (c *Cache) Module(m *rtl.Module) (*ModuleNetlist, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.module(m)
}

// module is the recursion under the cache lock.
func (c *Cache) module(m *rtl.Module) (*ModuleNetlist, error) {
	if n, ok := c.byModule[m]; ok {
		return n, nil
	}
	d := c.dg.module(m)
	if n, ok := c.store.Load(d); ok {
		c.hits++
		c.byModule[m] = n
		c.fromHit[m] = true
		return n, nil
	}
	c.misses++
	n := &ModuleNetlist{}
	for _, a := range m.Assigns {
		cell := mapExpr(a.Dst.Name, a.Src)
		n.Cells = append(n.Cells, cell)
	}
	for _, r := range m.Registers {
		if r.Next.Width == 0 {
			return nil, fmt.Errorf("synth: register %s.%s has no next function", m.Name, r.Sig.Name)
		}
		cell := mapExpr(r.Sig.Name, r.Next)
		cell.IsState = true
		cell.Res[fpga.FF] += r.Sig.Width
		if r.Enable.Width != 0 {
			en := mapExpr("", r.Enable)
			cell.Res.Add(en.Res)
			cell.Fanin = append(cell.Fanin, en.Fanin...)
			if en.Levels > cell.Levels {
				cell.Levels = en.Levels // the CE pin's cone times the cell too
			}
		}
		if r.Reset.Width != 0 {
			rs := mapExpr("", r.Reset)
			cell.Res.Add(rs.Res)
			cell.Fanin = append(cell.Fanin, rs.Fanin...)
			if rs.Levels > cell.Levels {
				cell.Levels = rs.Levels
			}
		}
		cell.Fanin = dedup(cell.Fanin)
		n.Cells = append(n.Cells, cell)
	}
	for _, mem := range m.Memories {
		cell := mapMemory(mem)
		n.Cells = append(n.Cells, cell)
	}
	if c.hook != nil {
		c.hook(m, n)
	}
	for _, cell := range n.Cells {
		n.LocalUsage.Add(cell.Res)
	}
	n.LocalCellCount = len(n.Cells)
	n.TotalUsage = n.LocalUsage
	n.TotalCellCount = n.LocalCellCount
	for _, inst := range m.Instances {
		child, err := c.module(inst.Module)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, ChildRef{Name: inst.Name, Netlist: child})
		n.TotalUsage.Add(child.TotalUsage)
		n.TotalCellCount += child.TotalCellCount
		// Port connection expressions are parent-side logic; walk the
		// child's declared port order so netlists are deterministic.
		childIns, _ := inst.Module.Ports()
		for _, in := range childIns {
			src, ok := inst.Inputs[in.Name]
			if !ok {
				continue
			}
			cell := mapExpr(inst.Name+"."+in.Name, src)
			n.Cells = append(n.Cells, cell)
			n.LocalUsage.Add(cell.Res)
			n.TotalUsage.Add(cell.Res)
			n.LocalCellCount++
			n.TotalCellCount++
		}
	}
	c.mapped += n.LocalCellCount
	c.byModule[m] = n
	c.store.Save(d, n)
	return n, nil
}

// mapExpr technology-maps one expression cone into a cell.
func mapExpr(name string, e rtl.Expr) Cell {
	g := gates(e)
	luts := (g + 2) / 3 // ~3 two-input gates pack into one 6-LUT
	cell := Cell{
		Name:   name,
		Levels: levels(e),
	}
	cell.Res[fpga.LUT] = luts
	seen := make(map[string]bool)
	e.VisitSignals(func(s *rtl.Signal) {
		if !seen[s.Name] {
			seen[s.Name] = true
			cell.Fanin = append(cell.Fanin, s.Name)
		}
	})
	e.VisitMems(func(m *rtl.Memory) {
		key := "mem:" + m.Name
		if !seen[key] {
			seen[key] = true
			cell.Fanin = append(cell.Fanin, m.Name)
		}
	})
	return cell
}

// mapMemory maps a memory to LUTRAM (shallow) or BRAM (deep), mirroring
// vendor inference rules.
func mapMemory(mem *rtl.Memory) Cell {
	cell := Cell{Name: mem.Name, IsState: true, Levels: 1, MemWidth: mem.Width, MemDepth: mem.Depth}
	bits := mem.Depth * mem.Width
	if mem.Depth <= 64 && bits <= 2048 {
		// Distributed RAM: one 64x1 LUTRAM per bit column per 64 entries.
		cell.Res[fpga.LUTRAM] = ((mem.Depth + 63) / 64) * mem.Width
	} else {
		// Block RAM: 36Kb per BRAM.
		cell.Res[fpga.BRAM] = (bits + 36863) / 36864
	}
	for _, w := range mem.Writes {
		for _, e := range []rtl.Expr{w.Addr, w.Data, w.Enable} {
			sub := mapExpr("", e)
			cell.Res[fpga.LUT] += sub.Res[fpga.LUT]
			cell.Fanin = append(cell.Fanin, sub.Fanin...)
		}
	}
	cell.Fanin = dedup(cell.Fanin)
	return cell
}

// gates estimates the two-input gate count of an expression.
func gates(e rtl.Expr) int {
	n := 0
	switch e.Op {
	case rtl.OpConst, rtl.OpSig, rtl.OpSlice, rtl.OpConcat, rtl.OpShl, rtl.OpShr:
		// wiring only
	case rtl.OpNot:
		// inversions fold into downstream LUTs
	case rtl.OpAnd, rtl.OpOr, rtl.OpXor:
		n = e.Width
	case rtl.OpAdd, rtl.OpSub:
		n = 3 * e.Width // carry chain: xor + majority per bit
	case rtl.OpMul:
		n = e.Width * e.Width
	case rtl.OpEq, rtl.OpNe:
		w := e.Args[0].Width
		n = w + (w - 1)
	case rtl.OpLt, rtl.OpLe:
		n = 2 * e.Args[0].Width
	case rtl.OpMux:
		n = 2 * e.Width
	case rtl.OpRedOr, rtl.OpRedAnd:
		n = e.Args[0].Width - 1
	case rtl.OpMemRead:
		// the array itself is mapped by mapMemory; the read port is wiring
	}
	for _, a := range e.Args {
		n += gates(a)
	}
	return n
}

// levels estimates logic depth in LUT levels. Chains of the same
// associative operator are treated as the balanced LUT trees synthesis
// rebalances them into: a k-term and/or/xor chain costs ~log6(k) levels,
// not k.
func levels(e rtl.Expr) int {
	switch e.Op {
	case rtl.OpAnd, rtl.OpOr, rtl.OpXor:
		leaves, deepest := 0, 0
		flattenChain(e, e.Op, &leaves, &deepest)
		return deepest + lutTreeDepth(leaves)
	}
	deepest := 0
	for _, a := range e.Args {
		if d := levels(a); d > deepest {
			deepest = d
		}
	}
	switch e.Op {
	case rtl.OpConst, rtl.OpSig, rtl.OpSlice, rtl.OpConcat, rtl.OpShl, rtl.OpShr, rtl.OpNot:
		return deepest
	case rtl.OpAdd, rtl.OpSub, rtl.OpEq, rtl.OpNe, rtl.OpLt, rtl.OpLe, rtl.OpRedOr, rtl.OpRedAnd:
		// carry/reduction chains: fast dedicated carry logic, roughly one
		// extra level per 64 bits
		return deepest + 1 + e.Width/64
	case rtl.OpMul:
		return deepest + 2 + e.Width/16
	default:
		return deepest + 1
	}
}

// flattenChain counts the leaves of a same-operator chain and the depth
// of the deepest non-chain subtree feeding it.
func flattenChain(e rtl.Expr, op rtl.Op, leaves *int, deepest *int) {
	if e.Op != op {
		*leaves++
		if d := levels(e); d > *deepest {
			*deepest = d
		}
		return
	}
	for _, a := range e.Args {
		flattenChain(a, op, leaves, deepest)
	}
}

// lutTreeDepth is the depth of a balanced 6-LUT reduction tree over k
// inputs.
func lutTreeDepth(k int) int {
	d := 1
	for k > 6 {
		k = (k + 5) / 6
		d++
	}
	return d
}

func dedup(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// FlatCell is one entry of a netlist's flat cell table: a cell with its
// full hierarchical name and its fanins resolved to table indices.
type FlatCell struct {
	Name    string // hierarchical name of the driven signal
	Path    string // instance path of the owning module ("" = top)
	Res     fpga.ResourceVec
	IsState bool
	Levels  int
	// Drivers indexes, in fanin order, the cells of the table that drive
	// this cell's fanins. A fanin no cell drives (a chip input, a
	// constant) has no entry.
	Drivers []int32

	MemWidth, MemDepth int
}

// Flatten builds the netlist hierarchy flattened to one table: a module's
// own cells with dotted hierarchical names, then each child's, in
// declaration order. A fanin resolves to the last row whose name is the
// reading module's path joined with the fanin. Each call builds a new
// table; a stored netlist keeps none. Place builds a compile's table with
// it; a recompile builds only its partition's rows (FlattenAt) and
// carries the rest from its base's table (place.Replace).
func (n *ModuleNetlist) Flatten() []FlatCell {
	s := n.FlattenAt("")
	index := make(map[string]int32, len(s.Cells))
	for i := range s.Cells {
		index[s.Cells[i].Name] = int32(i)
	}
	s.Resolve(index)
	return s.Cells
}

// A Subtree is one module's subtree flattened at its instance path: its
// rows of the flat cell table, named and ordered as Flatten lays them
// out, with their fanins not yet resolved.
type Subtree struct {
	Cells  []FlatCell
	fanins [][]string // Cells[i]'s fanin names, local to its module
	total  int        // fanins over all rows
}

// FlattenAt flattens n as instantiated at the instance path prefix ("" is
// the top). Its rows carry no Drivers until Resolve.
func (n *ModuleNetlist) FlattenAt(prefix string) *Subtree {
	s := &Subtree{
		Cells:  make([]FlatCell, 0, n.TotalCellCount),
		fanins: make([][]string, 0, n.TotalCellCount),
	}
	s.walk(n, prefix)
	return s
}

func (s *Subtree) walk(m *ModuleNetlist, prefix string) {
	for i := range m.Cells {
		c := &m.Cells[i]
		s.Cells = append(s.Cells, FlatCell{
			Name: FlatName(prefix, c.Name), Path: prefix, Res: c.Res, IsState: c.IsState, Levels: c.Levels,
			MemWidth: c.MemWidth, MemDepth: c.MemDepth,
		})
		s.fanins = append(s.fanins, c.Fanin)
		s.total += len(c.Fanin)
	}
	for _, ch := range m.Children {
		s.walk(ch.Netlist, FlatName(prefix, ch.Name))
	}
}

// Resolve sets every row's Drivers: for each fanin f of a row at path P,
// the row index[FlatName(P, f)], if index holds that name. index must map
// each name to the last row of the whole table that carries it.
func (s *Subtree) Resolve(index map[string]int32) {
	drivers := make([]int32, 0, s.total)
	var key []byte
	for i := range s.Cells {
		c := &s.Cells[i]
		start := len(drivers)
		for _, f := range s.fanins[i] {
			key = append(key[:0], c.Path...)
			if c.Path != "" {
				key = append(key, '.')
			}
			key = append(key, f...)
			if d, ok := index[string(key)]; ok {
				drivers = append(drivers, d)
			}
		}
		c.Drivers = drivers[start:len(drivers):len(drivers)]
	}
}

// FlatName joins an instance path and a name local to the module there
// into a flat name.
func FlatName(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}

// Equal reports whether two cells are the same in every field.
func (c Cell) Equal(o Cell) bool {
	return c.Name == o.Name && c.Res == o.Res && c.IsState == o.IsState && c.Levels == o.Levels &&
		c.MemWidth == o.MemWidth && c.MemDepth == o.MemDepth && slices.Equal(c.Fanin, o.Fanin)
}

// Equal reports whether two netlists hold the same cells and children,
// cell by cell and instance by instance. Checkpoints of one digest are
// one pointer, which needs no walk.
func (n *ModuleNetlist) Equal(o *ModuleNetlist) bool {
	return n == o || slices.EqualFunc(n.Cells, o.Cells, Cell.Equal) &&
		slices.EqualFunc(n.Children, o.Children, func(a, b ChildRef) bool {
			return a.Name == b.Name && a.Netlist.Equal(b.Netlist)
		})
}

// CellsUnder counts cells under an instance path ("" = everything).
func (n *ModuleNetlist) CellsUnder(path string) int {
	if path == "" {
		return n.TotalCellCount
	}
	sub := n.find(path)
	if sub == nil {
		return 0
	}
	return sub.TotalCellCount
}

// UsageUnder returns resource usage under an instance path.
func (n *ModuleNetlist) UsageUnder(path string) fpga.ResourceVec {
	if path == "" {
		return n.TotalUsage
	}
	sub := n.find(path)
	if sub == nil {
		return fpga.ResourceVec{}
	}
	return sub.TotalUsage
}

// find resolves a dotted instance path to a child netlist.
func (n *ModuleNetlist) find(path string) *ModuleNetlist {
	cur := n
	for path != "" {
		head := path
		rest := ""
		for i := 0; i < len(path); i++ {
			if path[i] == '.' {
				head, rest = path[:i], path[i+1:]
				break
			}
		}
		var next *ModuleNetlist
		for _, ch := range cur.Children {
			if ch.Name == head {
				next = ch.Netlist
				break
			}
		}
		if next == nil {
			return nil
		}
		cur = next
		path = rest
	}
	return cur
}
