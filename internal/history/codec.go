package history

import (
	"bytes"
	"fmt"

	"zoomie/internal/codec"
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
// The layout is written with internal/codec — varints throughout — with
// a 4-byte magic so version skew fails loudly instead of misparsing.
// Timelines are encoded as a flat node list covering the full
// parent-reachable graph (GC'd lineage stubs included, since forkPos
// chains still route reconstruction) with parent references by list
// index; the first nLive entries are the live e.timelines. Map-valued
// savestates are encoded in sorted key order, so equal engines produce
// byte-identical blobs.

var blobMagic = []byte("zh01")

func appendDense(b []byte, ds denseState) []byte {
	b = codec.AppendUvarint(b, ds.pos)
	b = codec.AppendUvarint(b, ds.cycle)
	b = codec.AppendWords(b, ds.regs)
	return codec.AppendRows(b, ds.mems)
}

func readDense(d *codec.Decoder) denseState {
	return denseState{pos: d.Uvarint(), cycle: d.Uvarint(), regs: d.Words(nil), mems: d.Rows()}
}

func appendState(b []byte, st *State) []byte {
	b = codec.AppendUvarint(b, st.Pos)
	b = codec.AppendUvarint(b, st.Cycle)
	b = codec.AppendMap(b, st.Regs, codec.AppendUvarint)
	b = codec.AppendMap(b, st.Inputs, codec.AppendUvarint)
	return codec.AppendMap(b, st.Mems, codec.AppendWords)
}

func readState(d *codec.Decoder) *State {
	st := &State{Pos: d.Uvarint(), Cycle: d.Uvarint()}
	st.Regs = codec.ReadMap(d, d.Uvarint)
	st.Inputs = codec.ReadMap(d, d.Uvarint)
	st.Mems = codec.ReadMap(d, func() []uint64 { return d.Words(nil) })
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

	b := append(make([]byte, 0, 4096), blobMagic...)
	b = codec.AppendUvarint(b, uint64(e.cfg.KeyframeEvery))
	b = codec.AppendUvarint(b, uint64(e.cfg.MaxKeyframes))
	b = codec.AppendUvarint(b, uint64(e.cfg.MaxTimelines))
	b = codec.AppendString(b, e.cycleReg)
	b = codec.AppendUvarint(b, uint64(len(e.slots)))
	for _, sl := range e.slots {
		b = codec.AppendBool(codec.AppendString(b, sl.Name), sl.Input)
	}
	b = codec.AppendUvarint(b, uint64(len(e.mems)))
	for _, m := range e.mems {
		b = codec.AppendString(b, m.Name)
	}

	b = codec.AppendUvarint(b, e.seq)
	b = codec.AppendUvarint(b, e.segGen)
	b = codec.AppendUvarint(b, e.cursor)
	b = codec.AppendBool(b, e.detached)
	b = codec.AppendUvarint(b, uint64(e.nKF))
	b = codec.AppendVarint(b, e.bytes)
	b = codec.AppendVarint(b, int64(idx[e.cur]))
	b = codec.AppendVarint(b, int64(idx[e.cursorTL]))
	b = codec.AppendBool(b, e.pendingKF != nil)
	if e.pendingKF != nil {
		b = appendDense(b, *e.pendingKF)
	}

	b = codec.AppendUvarint(b, uint64(len(e.timelines)))
	b = codec.AppendUvarint(b, uint64(len(nodes)))
	for _, t := range nodes {
		parent := -1
		if t.parent != nil {
			parent = idx[t.parent]
		}
		b = codec.AppendVarint(b, int64(t.id))
		b = codec.AppendVarint(b, int64(parent))
		b = codec.AppendUvarint(b, t.forkPos)
		b = codec.AppendUvarint(b, t.forkCycle)
		b = codec.AppendUvarint(b, uint64(len(t.segs)))
		for _, seg := range t.segs {
			b = codec.AppendUvarint(b, seg.gen)
			b = codec.AppendUvarint(b, seg.startPos)
			b = codec.AppendUvarint(b, seg.endPos)
			b = appendDense(b, seg.kf)
			b = codec.AppendBytes(b, seg.buf)
			b = codec.AppendUvarint(b, uint64(len(seg.cycles)))
			b = codec.AppendUvarint(b, seg.lastCycle)
			b = codec.AppendUvarint(b, seg.minCycle)
			b = codec.AppendUvarint(b, seg.maxCycle)
			b = codec.AppendUvarint(b, uint64(len(seg.hostAt)))
			for _, h := range seg.hostAt {
				b = codec.AppendUvarint(codec.AppendUvarint(b, h.pos), h.cycle)
			}
		}
	}

	return codec.AppendMap(b, e.saves, func(b []byte, ds *denseState) []byte {
		return appendState(b, e.toState(*ds))
	})
}

// Decode reconstructs an engine from an Encode blob. The result is
// unattached (not recording): bind it to a fresh simulator of the same
// design with Transplant — slot layout and memory depths are re-validated
// there by name. Decode itself checks everything reconstruction indexes
// (see checkDecoded), so a blob from outside the process cannot make a
// later reconstruction index out of range.
func Decode(blob []byte) (*Engine, error) {
	if !bytes.HasPrefix(blob, blobMagic) {
		return nil, fmt.Errorf("history: decode: bad magic (not a zh01 history blob)")
	}
	d := codec.NewDecoder(blob[len(blobMagic):])

	e := &Engine{}
	e.cfg = Config{
		KeyframeEvery: int(d.Uvarint()),
		MaxKeyframes:  int(d.Uvarint()),
		MaxTimelines:  int(d.Uvarint()),
	}.withDefaults()
	e.cycleReg = d.String()
	e.cycleIdx = -1
	// Slot/memory layout carries names only: checkDecoded takes the
	// memory depths from the keyframes, and Transplant re-resolves
	// indices against the adopting simulator, validating the design by
	// slot-name equality.
	e.slots = make([]sim.StateSlot, d.Count(2))
	for i := range e.slots {
		e.slots[i].Name = d.String()
		e.slots[i].Input = d.Bool()
	}
	e.mems = make([]sim.StateMem, d.Count(1))
	for i := range e.mems {
		e.mems[i] = sim.StateMem{ID: int32(i), Name: d.String()}
	}
	e.ownLayout()

	e.seq = d.Uvarint()
	e.segGen = d.Uvarint()
	e.cursor = d.Uvarint()
	e.detached = d.Bool()
	e.nKF = int(d.Uvarint())
	e.bytes = d.Varint()
	curIdx := d.Int()
	cursorIdx := d.Int()
	if d.Bool() {
		kf := readDense(d)
		e.pendingKF = &kf
	}

	nLive := d.Count(1)
	nodes := make([]*timeline, d.Count(1))
	parents := make([]int, len(nodes))
	ticks := map[*segment]uint64{}
	for i := range nodes {
		t := &timeline{id: d.Int()}
		parents[i] = d.Int()
		t.forkPos = d.Uvarint()
		t.forkCycle = d.Uvarint()
		for j, n := 0, d.Count(4); j < n; j++ {
			seg := &segment{
				gen:      d.Uvarint(),
				startPos: d.Uvarint(),
				endPos:   d.Uvarint(),
				kf:       readDense(d),
				buf:      d.Bytes(),
			}
			ticks[seg] = d.Uvarint()
			seg.lastCycle = d.Uvarint()
			seg.minCycle = d.Uvarint()
			seg.maxCycle = d.Uvarint()
			for k, n := 0, d.Count(2); k < n; k++ {
				seg.hostAt = append(seg.hostAt, posCycle{pos: d.Uvarint(), cycle: d.Uvarint()})
			}
			t.segs = append(t.segs, seg)
		}
		nodes[i] = t
	}
	e.saves = codec.ReadMap(d, func() *denseState { return e.fromState(readState(d)) })
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("history: decode: %w", err)
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("history: decode: %d trailing bytes", d.Len())
	}
	if nLive > len(nodes) || len(nodes) == 0 {
		return nil, fmt.Errorf("history: decode: inconsistent timeline counts live=%d nodes=%d", nLive, len(nodes))
	}
	for name, ds := range e.saves {
		if ds == nil {
			return nil, fmt.Errorf("history: decode: savestate %q does not match the slot layout", name)
		}
	}
	if err := linkTimelines(nodes, parents); err != nil {
		return nil, err
	}
	if curIdx < 0 || curIdx >= len(nodes) || cursorIdx < 0 || cursorIdx >= len(nodes) {
		return nil, fmt.Errorf("history: decode: cursor timeline out of range")
	}
	e.timelines = nodes[:nLive]
	e.cur = nodes[curIdx]
	e.cursorTL = nodes[cursorIdx]
	if err := e.checkDecoded(nodes, ticks); err != nil {
		return nil, err
	}
	return e, nil
}

// linkTimelines sets each node's parent from its index (negative for a
// root), refusing indices out of range and parent loops: every lineage
// walk must end at a root.
func linkTimelines(nodes []*timeline, parents []int) error {
	const (
		unseen = iota
		walking
		rooted
	)
	state := make([]int, len(nodes))
	for i, p := range parents {
		if p >= len(nodes) {
			return fmt.Errorf("history: decode: bad parent index %d for timeline %d", p, i)
		}
		if p >= 0 {
			nodes[i].parent = nodes[p]
		}
	}
	for i := range nodes {
		j := i
		for j >= 0 && state[j] == unseen {
			state[j] = walking
			j = parents[j]
		}
		if j >= 0 && state[j] == walking {
			return fmt.Errorf("history: decode: timeline %d's lineage loops", i)
		}
		for j = i; j >= 0 && state[j] == walking; j = parents[j] {
			state[j] = rooted
		}
	}
	return nil
}

// checkDecoded validates a decoded engine in one pass over its states
// and delta records, so that reconstruction can index without checks.
// The current timeline has a keyframe, whose memory depths become the
// layout's. Every keyframe, savestate and pending keyframe holds one
// value per slot and those depths. Every record parses, is a tick or a
// host write, and names a slot, memory and word inside that layout; a
// segment's ticks match its position range and the count its blob
// recorded, and rebuild its cycle tags.
func (e *Engine) checkDecoded(nodes []*timeline, ticks map[*segment]uint64) error {
	if len(e.cur.segs) == 0 {
		return fmt.Errorf("history: decode: the current timeline has no keyframe")
	}
	for i, words := range e.cur.first().kf.mems {
		if i < len(e.mems) {
			e.mems[i].Depth = len(words)
		}
	}
	states := []*denseState{e.pendingKF}
	for _, ds := range e.saves {
		states = append(states, ds)
	}
	for _, t := range nodes {
		for _, seg := range t.segs {
			states = append(states, &seg.kf)
		}
	}
	for _, ds := range states {
		if ds == nil {
			continue
		}
		if len(ds.regs) != len(e.slots) || len(ds.mems) != len(e.mems) {
			return fmt.Errorf("history: decode: state at position %d holds %d slots and %d memories, the layout %d and %d",
				ds.pos, len(ds.regs), len(ds.mems), len(e.slots), len(e.mems))
		}
		for i, m := range e.mems {
			if len(ds.mems[i]) != m.Depth {
				return fmt.Errorf("history: decode: state at position %d holds %d words of %q, its keyframes %d",
					ds.pos, len(ds.mems[i]), m.Name, m.Depth)
			}
		}
	}
	for i, t := range nodes {
		for j, seg := range t.segs {
			cycles, err := e.records(seg)
			if err != nil {
				return fmt.Errorf("history: decode: segment %d of timeline %d: %w", j, i, err)
			}
			if n := uint64(len(cycles)); n != ticks[seg] || seg.endPos < seg.startPos || seg.endPos-seg.startPos != n {
				return fmt.Errorf("history: decode: segment %d of timeline %d: %d tick records for %d ticks at positions %d..%d",
					j, i, n, ticks[seg], seg.startPos, seg.endPos)
			}
			seg.cycles = cycles
		}
	}
	return nil
}

// records walks a segment's delta records as walkSegment does, checking
// each against the layout, and returns the cycle tag of every tick.
func (e *Engine) records(seg *segment) ([]uint64, error) {
	var cycles []uint64
	cyc := seg.kf.cycle
	d := codec.NewDecoder(seg.buf)
	for d.Len() > 0 && d.Err() == nil {
		switch kind := d.Byte(); kind {
		case recTick:
			cyc = uint64(int64(cyc) + d.Varint())
			cycles = append(cycles, cyc)
		case recHost:
		default:
			d.Fail("record kind %d", kind)
		}
		// Register (slot, value) pairs, then memory (id, address, value)
		// triples.
		for i, n := 0, d.Count(2); i < n; i++ {
			if slot := d.Uvarint(); slot >= uint64(len(e.slots)) {
				d.Fail("record names slot %d of %d", slot, len(e.slots))
			}
			d.Uvarint()
		}
		for i, n := 0, d.Count(3); i < n; i++ {
			id, addr := d.Uvarint(), d.Uvarint()
			if id >= uint64(len(e.mems)) {
				d.Fail("record names memory %d of %d", id, len(e.mems))
			} else if addr >= uint64(e.mems[id].Depth) {
				d.Fail("record names word %d of %q, %d deep", addr, e.mems[id].Name, e.mems[id].Depth)
			}
			d.Uvarint()
		}
	}
	return cycles, d.Err()
}
