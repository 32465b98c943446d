package history

import (
	"encoding/binary"
	"fmt"
	"sort"

	"zoomie/internal/sim"
)

// Blob codec: the transport form of Detach/Transplant. Encode serializes
// a complete engine — configuration, slot/memory layout, every timeline
// with its keyframes and delta buffers, the cursor, and all savestates —
// into a self-contained byte blob; Decode on another host reconstructs an
// unattached engine that Transplant() can bind to a fresh simulator of
// the same design. This is what makes cross-daemon session failover carry
// time travel along: the coordinator checkpoints the blob, and the
// restored session can still rewind past the failure.
//
// The layout is the engine's own idiom — varints throughout — with a
// 4-byte magic so version skew fails loudly instead of misparsing.
// Timelines are encoded as a flat node list covering the full
// parent-reachable graph (GC'd lineage stubs included, since forkPos
// chains still route reconstruction) with parent references by list
// index; the first nLive entries are the live e.timelines. Map-valued
// savestates are encoded in sorted key order, so equal engines produce
// byte-identical blobs.

var blobMagic = [4]byte{'z', 'h', '0', '1'}

type enc struct{ b []byte }

func (w *enc) u(v uint64)  { w.b = binary.AppendUvarint(w.b, v) }
func (w *enc) i(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *enc) byte(v byte) { w.b = append(w.b, v) }
func (w *enc) bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}
func (w *enc) str(s string) { w.u(uint64(len(s))); w.b = append(w.b, s...) }
func (w *enc) bytes(p []byte) {
	w.u(uint64(len(p)))
	w.b = append(w.b, p...)
}
func (w *enc) words(p []uint64) {
	w.u(uint64(len(p)))
	for _, v := range p {
		w.u(v)
	}
}

type dec struct {
	b   []byte
	off int
	err error
}

func (r *dec) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("history: decode: "+format, args...)
	}
}

func (r *dec) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated uvarint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *dec) i() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated varint at %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *dec) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated byte at %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *dec) bool() bool { return r.byte() != 0 }

// count reads a length prefix, bounds-checked against the bytes left so a
// corrupt blob cannot trigger a huge allocation: n elements of at least
// elemMin encoded bytes each must fit in the remaining payload.
func (r *dec) count(elemMin int) int {
	n := r.u()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if n > uint64(len(r.b)-r.off)/uint64(elemMin) {
		r.fail("implausible count %d at %d", n, r.off)
		return 0
	}
	return int(n)
}

func (r *dec) str() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	if r.off+n > len(r.b) {
		r.fail("truncated string at %d", r.off)
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *dec) bytes() []byte {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail("truncated bytes at %d", r.off)
		return nil
	}
	p := append([]byte(nil), r.b[r.off:r.off+n]...)
	r.off += n
	return p
}

func (r *dec) words() []uint64 {
	n := r.count(1)
	if r.err != nil {
		return nil
	}
	p := make([]uint64, n)
	for i := range p {
		p[i] = r.u()
	}
	return p
}

func (w *enc) dense(ds denseState) {
	w.u(ds.pos)
	w.u(ds.cycle)
	w.words(ds.regs)
	w.u(uint64(len(ds.mems)))
	for _, m := range ds.mems {
		w.words(m)
	}
}

func (r *dec) dense() denseState {
	ds := denseState{pos: r.u(), cycle: r.u(), regs: r.words()}
	n := r.count(1)
	ds.mems = make([][]uint64, n)
	for i := range ds.mems {
		ds.mems[i] = r.words()
	}
	return ds
}

func (w *enc) state(st *State) {
	w.u(st.Pos)
	w.u(st.Cycle)
	w.u(uint64(len(st.Regs)))
	for _, k := range sortedKeys(st.Regs) {
		w.str(k)
		w.u(st.Regs[k])
	}
	w.u(uint64(len(st.Inputs)))
	for _, k := range sortedKeys(st.Inputs) {
		w.str(k)
		w.u(st.Inputs[k])
	}
	w.u(uint64(len(st.Mems)))
	mems := make([]string, 0, len(st.Mems))
	for k := range st.Mems {
		mems = append(mems, k)
	}
	sort.Strings(mems)
	for _, k := range mems {
		w.str(k)
		w.words(st.Mems[k])
	}
}

func (r *dec) state() *State {
	st := &State{
		Pos:    r.u(),
		Cycle:  r.u(),
		Regs:   map[string]uint64{},
		Inputs: map[string]uint64{},
		Mems:   map[string][]uint64{},
	}
	for i, n := 0, r.count(2); i < n; i++ {
		k := r.str()
		st.Regs[k] = r.u()
	}
	for i, n := 0, r.count(2); i < n; i++ {
		k := r.str()
		st.Inputs[k] = r.u()
	}
	for i, n := 0, r.count(2); i < n; i++ {
		k := r.str()
		st.Mems[k] = r.words()
	}
	return st
}

// fromState converts a decoded savestate to dense state, or returns nil
// when it does not hold exactly the engine's slots and memories.
func (e *Engine) fromState(st *State) *denseState {
	if len(st.Regs)+len(st.Inputs) != len(e.slots) || len(st.Mems) != len(e.mems) {
		return nil
	}
	ds := &denseState{pos: st.Pos, cycle: st.Cycle, regs: make([]uint64, len(e.slots)), mems: make([][]uint64, len(e.mems))}
	for i, sl := range e.slots {
		src := st.Regs
		if sl.Input {
			src = st.Inputs
		}
		v, ok := src[sl.Name]
		if !ok {
			return nil
		}
		ds.regs[i] = v
	}
	for i, m := range e.mems {
		words, ok := st.Mems[m.Name]
		if !ok {
			return nil
		}
		ds.mems[i] = words
	}
	return ds
}

// tickCycles rebuilds a decoded segment's cycle tags from its records;
// it reports false when the records do not parse.
func tickCycles(seg *segment) ([]uint64, bool) {
	var cycles []uint64
	buf, off := seg.buf, 0
	next := func() (uint64, bool) {
		if off >= len(buf) {
			return 0, false
		}
		v, n := binary.Uvarint(buf[off:])
		off += max(n, 0)
		return v, n > 0
	}
	cyc := seg.kf.cycle
	for off < len(buf) {
		kind := buf[off]
		off++
		if kind == recTick {
			d, n := binary.Varint(buf[off:])
			if n <= 0 {
				return nil, false
			}
			off += n
			cyc = uint64(int64(cyc) + d)
			cycles = append(cycles, cyc)
		}
		// Skip the record body: register (slot, value) pairs, then memory
		// (id, address, value) triples.
		for _, per := range []uint64{2, 3} {
			cnt, ok := next()
			for i := uint64(0); ok && i < cnt*per; i++ {
				_, ok = next()
			}
			if !ok {
				return nil, false
			}
		}
	}
	return cycles, true
}

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Encode serializes the engine into a self-contained blob. The engine
// keeps running; Encode is a read-only snapshot under the engine lock.
func (e *Engine) Encode() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()

	// Flat node list: live timelines first, then GC'd lineage stubs still
	// referenced through parent pointers.
	nodes := append([]*timeline(nil), e.timelines...)
	idx := make(map[*timeline]int, len(nodes))
	for i, t := range nodes {
		idx[t] = i
	}
	for i := 0; i < len(nodes); i++ {
		if p := nodes[i].parent; p != nil {
			if _, ok := idx[p]; !ok {
				idx[p] = len(nodes)
				nodes = append(nodes, p)
			}
		}
	}

	w := &enc{b: make([]byte, 0, 4096)}
	w.b = append(w.b, blobMagic[:]...)
	w.u(uint64(e.cfg.KeyframeEvery))
	w.u(uint64(e.cfg.MaxKeyframes))
	w.u(uint64(e.cfg.MaxTimelines))
	w.str(e.cycleReg)
	w.u(uint64(len(e.slots)))
	for _, sl := range e.slots {
		w.str(sl.Name)
		w.bool(sl.Input)
	}
	w.u(uint64(len(e.mems)))
	for _, m := range e.mems {
		w.str(m.Name)
	}

	w.u(e.seq)
	w.u(e.segGen)
	w.u(e.cursor)
	w.bool(e.detached)
	w.u(uint64(e.nKF))
	w.i(e.bytes)
	w.i(int64(idx[e.cur]))
	w.i(int64(idx[e.cursorTL]))
	if e.pendingKF != nil {
		w.bool(true)
		w.dense(*e.pendingKF)
	} else {
		w.bool(false)
	}

	w.u(uint64(len(e.timelines)))
	w.u(uint64(len(nodes)))
	for _, t := range nodes {
		w.i(int64(t.id))
		if t.parent == nil {
			w.i(-1)
		} else {
			w.i(int64(idx[t.parent]))
		}
		w.u(t.forkPos)
		w.u(t.forkCycle)
		w.u(uint64(len(t.segs)))
		for _, seg := range t.segs {
			w.u(seg.gen)
			w.u(seg.startPos)
			w.u(seg.endPos)
			w.dense(seg.kf)
			w.bytes(seg.buf)
			w.u(uint64(len(seg.cycles)))
			w.u(seg.lastCycle)
			w.u(seg.minCycle)
			w.u(seg.maxCycle)
			w.u(uint64(len(seg.hostAt)))
			for _, h := range seg.hostAt {
				w.u(h.pos)
				w.u(h.cycle)
			}
		}
	}

	names := make([]string, 0, len(e.saves))
	for n := range e.saves {
		names = append(names, n)
	}
	sort.Strings(names)
	w.u(uint64(len(names)))
	for _, n := range names {
		w.str(n)
		w.state(e.toState(*e.saves[n]))
	}
	return w.b
}

// Decode reconstructs an engine from an Encode blob. The result is
// unattached (not recording): bind it to a fresh simulator of the same
// design with Transplant — slot layout is re-validated there by name.
func Decode(blob []byte) (*Engine, error) {
	if len(blob) < len(blobMagic) || string(blob[:4]) != string(blobMagic[:]) {
		return nil, fmt.Errorf("history: decode: bad magic (not a zh01 history blob)")
	}
	r := &dec{b: blob, off: 4}

	e := &Engine{saves: map[string]*denseState{}}
	e.cfg = Config{
		KeyframeEvery: int(r.u()),
		MaxKeyframes:  int(r.u()),
		MaxTimelines:  int(r.u()),
	}.withDefaults()
	e.cycleReg = r.str()
	e.cycleIdx = -1
	// Slot/memory layout carries names only: Transplant re-resolves
	// indices and depths against the adopting simulator, validating the
	// design by slot-name equality.
	nSlots := r.count(2)
	e.slots = make([]sim.StateSlot, nSlots)
	for i := range e.slots {
		e.slots[i].Name = r.str()
		e.slots[i].Input = r.bool()
	}
	nMems := r.count(1)
	e.mems = make([]sim.StateMem, nMems)
	for i := range e.mems {
		e.mems[i].Name = r.str()
		e.mems[i].ID = int32(i)
	}
	e.ownLayout()

	e.seq = r.u()
	e.segGen = r.u()
	e.cursor = r.u()
	e.detached = r.bool()
	e.nKF = int(r.u())
	e.bytes = r.i()
	curIdx := int(r.i())
	cursorIdx := int(r.i())
	if r.bool() {
		kf := r.dense()
		e.pendingKF = &kf
	}

	nLive := r.count(1)
	nNodes := r.count(1)
	if r.err == nil && (nLive > nNodes || nNodes == 0) {
		r.fail("inconsistent timeline counts live=%d nodes=%d", nLive, nNodes)
	}
	nodes := make([]*timeline, nNodes)
	parents := make([]int, nNodes)
	for i := 0; i < nNodes && r.err == nil; i++ {
		t := &timeline{id: int(r.i())}
		parents[i] = int(r.i())
		t.forkPos = r.u()
		t.forkCycle = r.u()
		nSegs := r.count(4)
		for j := 0; j < nSegs && r.err == nil; j++ {
			seg := &segment{
				gen:      r.u(),
				startPos: r.u(),
				endPos:   r.u(),
				kf:       r.dense(),
				buf:      r.bytes(),
			}
			cycles, ok := tickCycles(seg)
			if n := r.u(); !ok || uint64(len(cycles)) != n {
				r.fail("segment %d of timeline %d: records disagree with its %d ticks", j, i, n)
			}
			seg.cycles = cycles
			seg.lastCycle = r.u()
			seg.minCycle = r.u()
			seg.maxCycle = r.u()
			nHost := r.count(2)
			for k := 0; k < nHost && r.err == nil; k++ {
				seg.hostAt = append(seg.hostAt, posCycle{pos: r.u(), cycle: r.u()})
			}
			t.segs = append(t.segs, seg)
		}
		nodes[i] = t
	}
	if r.err != nil {
		return nil, r.err
	}
	for i, p := range parents {
		if p < 0 {
			continue
		}
		if p >= nNodes || p == i {
			return nil, fmt.Errorf("history: decode: bad parent index %d for timeline %d", p, i)
		}
		nodes[i].parent = nodes[p]
	}
	if curIdx < 0 || curIdx >= nNodes || cursorIdx < 0 || cursorIdx >= nNodes {
		return nil, fmt.Errorf("history: decode: cursor timeline out of range")
	}
	e.timelines = nodes[:nLive]
	e.cur = nodes[curIdx]
	e.cursorTL = nodes[cursorIdx]

	nSaves := r.count(2)
	for i := 0; i < nSaves && r.err == nil; i++ {
		name := r.str()
		if ds := e.fromState(r.state()); ds != nil {
			e.saves[name] = ds
		} else {
			r.fail("savestate %q does not match the slot layout", name)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("history: decode: %d trailing bytes", len(r.b)-r.off)
	}
	return e, nil
}
