package sim

import "zoomie/internal/rtl"

// Incremental settling. During compilation the engine records, for every
// signal slot and every memory, which compiled assigns read it (the
// fanout graph). State commits — register/memory updates at a clock
// edge, Poke, PokeMem — mark the fanout of each *changed* slot dirty,
// and settleDirty re-evaluates only the dirty assigns in levelized
// order, propagating further only when an assign's output actually
// changes. Because fanout edges always point to strictly higher levels,
// one ascending sweep over the level buckets settles the design.

// dirtyState tracks which compiled assigns must be re-evaluated.
type dirtyState struct {
	levelOf   []int32   // assign -> level
	fanoutSig [][]int32 // signal slot -> assigns reading it
	fanoutMem [][]int32 // memory id -> assigns reading it
	inQueue   []bool    // assign -> already pending
	pending   [][]int32 // level -> pending assigns
	count     int       // total pending
}

// newDirtyState builds the fanout graph for a compiled design. order and
// level are the levelize results over f.Assigns; assign k of cp.assigns
// corresponds to f.Assigns[order[k]].
func newDirtyState(f *rtl.Flat, cp *compiled, sigIndex map[*rtl.Signal]int,
	order, level []int) *dirtyState {

	memIndex := make(map[*rtl.Memory]int, len(f.Memories))
	for i, m := range f.Memories {
		memIndex[m] = i
	}
	d := &dirtyState{
		levelOf:   make([]int32, len(order)),
		fanoutSig: make([][]int32, len(f.Signals)),
		fanoutMem: make([][]int32, len(f.Memories)),
		inQueue:   make([]bool, len(order)),
		pending:   make([][]int32, len(cp.byLevel)),
	}
	for k, oi := range order {
		d.levelOf[k] = int32(level[oi])
		seenSig := make(map[int]bool)
		seenMem := make(map[int]bool)
		f.Assigns[oi].Src.Walk(func(e rtl.Expr) {
			switch e.Op {
			case rtl.OpSig:
				slot := sigIndex[e.Sig]
				if !seenSig[slot] {
					seenSig[slot] = true
					d.fanoutSig[slot] = append(d.fanoutSig[slot], int32(k))
				}
			case rtl.OpMemRead:
				id := memIndex[e.Mem]
				if !seenMem[id] {
					seenMem[id] = true
					d.fanoutMem[id] = append(d.fanoutMem[id], int32(k))
				}
			}
		})
	}
	return d
}

// markSig queues every assign reading the given signal slot.
func (d *dirtyState) markSig(slot int) {
	for _, k := range d.fanoutSig[slot] {
		if !d.inQueue[k] {
			d.inQueue[k] = true
			lvl := d.levelOf[k]
			d.pending[lvl] = append(d.pending[lvl], k)
			d.count++
		}
	}
}

// markMem queues every assign with a combinational read of the memory.
func (d *dirtyState) markMem(id int) {
	for _, k := range d.fanoutMem[id] {
		if !d.inQueue[k] {
			d.inQueue[k] = true
			lvl := d.levelOf[k]
			d.pending[lvl] = append(d.pending[lvl], k)
			d.count++
		}
	}
}

// clear drops all pending work; called after a full settle has made the
// combinational state consistent wholesale.
func (d *dirtyState) clear() {
	if d.count == 0 {
		return
	}
	for lvl := range d.pending {
		for _, k := range d.pending[lvl] {
			d.inQueue[k] = false
		}
		d.pending[lvl] = d.pending[lvl][:0]
	}
	d.count = 0
}

// settleDirty re-evaluates the dirty fanout cone in levelized order.
func (s *Simulator) settleDirty() {
	d := s.dirty
	if d.count == 0 {
		return
	}
	cp := s.comp
	for lvl := 0; lvl < len(d.pending); lvl++ {
		q := d.pending[lvl]
		if len(q) == 0 {
			continue
		}
		d.count -= len(q)
		for _, k := range q {
			d.inQueue[k] = false
		}
		for _, k := range q {
			a := &cp.assigns[k]
			v := runCode(cp.code[a.x.start:a.x.end], cp.stack, s.vals, cp.memData)
			if s.vals[a.dst] != v {
				s.vals[a.dst] = v
				d.markSig(int(a.dst))
			}
		}
		d.pending[lvl] = q[:0]
		if d.count == 0 {
			return
		}
	}
}

// settleFullCompiled evaluates every assign in levelized order.
// Afterwards the design is consistent regardless of prior dirty state.
func (s *Simulator) settleFullCompiled() {
	cp := s.comp
	for _, bucket := range cp.byLevel {
		for _, k := range bucket {
			a := &cp.assigns[k]
			s.vals[a.dst] = runCode(cp.code[a.x.start:a.x.end], cp.stack, s.vals, cp.memData)
		}
	}
	s.dirty.clear()
}
