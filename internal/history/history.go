// Package history is the omniscient record/replay engine behind
// time-travel debugging (rewind / seek / reverse-continue / branch
// timelines).
//
// It records through the simulator's commit hook (internal/sim hook.go):
// every tick delivers exactly the register slots and memory words that
// actually changed — the same change detection that feeds the dirty-set
// settler — so recording cost is proportional to design activity, not
// design size. Deltas are varint-encoded into per-segment byte buffers;
// every KeyframeEvery ticks a full keyframe (dense copies of all state
// slots and memories) starts a new segment. Reconstructing any recorded
// position is then nearest-keyframe plus a deterministic forward walk of
// the recorded deltas — the deltas *are* the deterministic replay,
// including out-of-band host writes (debugger pokes, migration
// restores), which a live re-execution would have to re-inject by hand.
//
// Segments form a ring: when the total keyframe count exceeds
// MaxKeyframes, the globally oldest segment is evicted, advancing the
// horizon; seeks before the horizon fail with the typed
// dberr.ErrHistoryHorizon sentinel.
//
// Timelines branch instead of being destroyed: after a seek back, the
// first newly recorded tick (or host write) forks a new timeline whose
// keyframe is the exact live state at the fork, with a parent pointer at
// the fork position. Cycle→position resolution and state reconstruction
// always walk the current cursor's lineage, so the visible history is
// one coherent line from horizon to cursor.
//
// The engine never touches the cable or the debugger: it reconstructs
// state host-side and hands it to the facade, in the state map's order
// the facade resolved once, and the facade restores it through dbg's
// RestoreVec (the configuration-frame Snapshot/Restore machinery). A
// live mirror of the simulator's state, fed by the same commit hook,
// tells the facade which values differ from the board, so a restore
// writes only the frames holding them.
package history

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"zoomie/internal/dberr"
	"zoomie/internal/sim"
)

// Config tunes the recording engine. Zero values select defaults.
type Config struct {
	// KeyframeEvery is the tick distance between full keyframe
	// snapshots (default 64). Smaller means faster seeks and a shorter
	// horizon for the same memory; larger amortizes keyframe cost over
	// more ticks. See DESIGN.md §5 for the trade-off.
	KeyframeEvery int
	// MaxKeyframes bounds the total number of retained segments across
	// all timelines (default 64); the horizon is KeyframeEvery *
	// MaxKeyframes ticks deep in steady state.
	MaxKeyframes int
	// MaxTimelines bounds retained branch timelines (default 8); when a
	// fork would exceed it, the oldest timeline off the current lineage
	// is garbage-collected.
	MaxTimelines int
}

func (c Config) withDefaults() Config {
	if c.KeyframeEvery <= 0 {
		c.KeyframeEvery = 64
	}
	if c.MaxKeyframes <= 0 {
		c.MaxKeyframes = 64
	}
	if c.MaxTimelines <= 0 {
		c.MaxTimelines = 8
	}
	return c
}

// State is the full architectural state at one recorded position,
// keyed by flat signal/memory name: the form savestates take in an
// encoded blob. Regs holds clocked registers (restorable through
// configuration frames); Inputs holds top-level input ports (restorable
// only by poking the simulated pins).
type State struct {
	Pos    uint64
	Cycle  uint64
	Regs   map[string]uint64
	Inputs map[string]uint64
	Mems   map[string][]uint64
}

// Vec is the state at one recorded position in the layout a caller
// resolved (Resolve): Regs[i] is the value of the caller's register i
// and Mems[j] the words of its memory j. Inputs holds the input ports in
// name order, as slots of the simulator the engine is bound to (they are
// driven as pins, not restored through frames). Mems may share the
// engine's copies: callers must not modify them.
type Vec struct {
	Pos    uint64
	Cycle  uint64
	Regs   []uint64
	Mems   [][]uint64
	Inputs []sim.RegDelta
}

// denseState is a State in the engine's internal dense layout.
type denseState struct {
	pos   uint64
	cycle uint64
	regs  []uint64   // indexed like Engine.slots
	mems  [][]uint64 // indexed like Engine.mems
}

// record kinds in a segment's delta buffer.
const (
	recTick = 0 // one simulator tick: cycle delta + changed slots/words
	recHost = 1 // out-of-band host write at the current position
)

// segment is one keyframe plus the encoded deltas of the ticks after it.
type segment struct {
	gen      uint64 // global creation order (stream cursor, eviction order)
	startPos uint64 // position of the keyframe
	endPos   uint64 // position of the last encoded tick (== startPos when empty)
	kf       denseState
	buf      []byte
	// cycles holds the cycle tag of every tick record, in order: the
	// tick at position startPos+1+i completed cycle cycles[i]. Cycle
	// lookups read these instead of decoding the buffer.
	cycles []uint64

	lastCycle          uint64 // cycle of the last tick (delta-encoding base)
	minCycle, maxCycle uint64
	hostAt             []posCycle // positions carrying host records, ascending
}

type posCycle struct {
	pos   uint64
	cycle uint64
}

// timeline is one branch of history. Positions below segs[0].startPos
// resolve through parent at forkPos.
type timeline struct {
	id        int
	parent    *timeline
	forkPos   uint64
	forkCycle uint64
	segs      []*segment
}

func (t *timeline) first() *segment { return t.segs[0] }
func (t *timeline) last() *segment  { return t.segs[len(t.segs)-1] }

// Engine records and reconstructs. All methods are safe for concurrent
// use; in practice every caller is serialized by the session actor (or
// the single-threaded local facade) already.
type Engine struct {
	mu  sync.Mutex
	cfg Config

	sim      *sim.Simulator
	slots    []sim.StateSlot
	denseOf  []int32        // sim value-array slot -> dense index, -1 = not state
	slotIdx  map[string]int // slot name -> dense index
	mems     []sim.StateMem
	memIdx   map[string]int // memory name -> index into mems
	cycleReg string
	cycleIdx int32 // dense index of the cycle register, -1 = use positions

	// The caller's layout (Resolve): regOf[i] is the dense index of the
	// caller's register i and memOf[j] the index into mems of its memory
	// j. inputs lists the dense indices of the input ports in name order.
	regOf  []int32
	memOf  []int32
	inputs []int32

	// live mirrors the simulator's current state slot for slot and word
	// for word. Binding seeds it; from then on only the commit hook's
	// deltas feed it, suspended or not, so it always equals the board and
	// is the baseline restores diff against (DESIGN.md §5).
	live denseState

	seq       uint64 // last assigned position (0 = attach keyframe)
	segGen    uint64
	timelines []*timeline
	cur       *timeline // timeline being appended to
	cursorTL  *timeline
	cursor    uint64
	detached  bool // cursor behind the tip: next record forks
	pendingKF *denseState
	suspended int // nesting suspend count
	saves     map[string]*denseState
	nKF       int
	bytes     int64
}

// New creates an unattached engine.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), saves: make(map[string]*denseState)}
}

// Attach binds the engine to a simulator, captures the initial keyframe
// (position 0) and starts recording. cycleReg names the design's cycle
// counter register (the Debug Controller's cycle_count), used to tag
// every position with a user-visible cycle; if empty or unknown, cycle
// tags fall back to positions.
func (e *Engine) Attach(s *sim.Simulator, cycleReg string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.bind(s, cycleReg)
	e.ownLayout()
	root := &timeline{id: 0}
	e.timelines = []*timeline{root}
	e.cur, e.cursorTL = root, root
	e.addSegment(root, e.captureLive(0))
	s.SetCommitHook(e)
}

// bind resolves the slot/memory layout of a simulator.
func (e *Engine) bind(s *sim.Simulator, cycleReg string) {
	e.sim = s
	e.slots = s.StateSlots()
	e.mems = s.StateMems()
	e.cycleReg = cycleReg
	e.cycleIdx = -1
	maxIdx := int32(0)
	for _, sl := range e.slots {
		if sl.Idx > maxIdx {
			maxIdx = sl.Idx
		}
	}
	e.denseOf = make([]int32, maxIdx+1)
	for i := range e.denseOf {
		e.denseOf[i] = -1
	}
	e.live = denseState{regs: make([]uint64, len(e.slots)), mems: make([][]uint64, len(e.mems))}
	e.slotIdx = make(map[string]int, len(e.slots))
	for i, sl := range e.slots {
		e.denseOf[sl.Idx] = int32(i)
		e.slotIdx[sl.Name] = i
		e.live.regs[i] = s.SlotValue(sl.Idx)
		if sl.Name == cycleReg {
			e.cycleIdx = int32(i)
		}
	}
	e.memIdx = make(map[string]int, len(e.mems))
	for i, m := range e.mems {
		e.memIdx[m.Name] = i
		e.live.mems[i] = make([]uint64, m.Depth)
		s.CopyMemInto(m.ID, e.live.mems[i])
	}
}

// ownLayout sets the caller's layout to the engine's own order: every
// register slot, then every memory, as the simulator lists them.
func (e *Engine) ownLayout() {
	e.regOf, e.memOf, e.inputs = nil, nil, nil
	for i, sl := range e.slots {
		if sl.Input {
			e.inputs = append(e.inputs, int32(i))
		} else {
			e.regOf = append(e.regOf, int32(i))
		}
	}
	sort.Slice(e.inputs, func(a, b int) bool { return e.slots[e.inputs[a]].Name < e.slots[e.inputs[b]].Name })
	for i := range e.mems {
		e.memOf = append(e.memOf, int32(i))
	}
}

// Resolve sets the layout of the state vectors the engine hands out
// (StateAt, SaveNamed, Named) and compares (LiveDiff): the caller's
// registers and memories, by flat name, in the caller's order. The names
// are looked up once, here; every later op moves state by index. The
// layout must name every register and memory the engine records, and
// nothing else. Until then a freshly attached or decoded engine uses its
// own order. A transplant keeps the layout, which stays valid for the
// caller it was resolved for; a new caller, such as a session adopting
// the engine, resolves its own.
func (e *Engine) Resolve(regs, mems []string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := make(map[int]bool, len(regs))
	regOf := make([]int32, len(regs))
	for i, n := range regs {
		d, ok := e.slotIdx[n]
		if !ok || e.slots[d].Input || seen[d] {
			return fmt.Errorf("history: layout register %q is not a recorded register", n)
		}
		seen[d] = true
		regOf[i] = int32(d)
	}
	clear(seen)
	memOf := make([]int32, len(mems))
	for j, n := range mems {
		m, ok := e.memIdx[n]
		if !ok || seen[m] {
			return fmt.Errorf("history: layout memory %q is not a recorded memory", n)
		}
		seen[m] = true
		memOf[j] = int32(m)
	}
	if len(regOf) != len(e.slots)-len(e.inputs) || len(memOf) != len(e.mems) {
		return fmt.Errorf("history: layout of %d registers and %d memories, the engine records %d and %d",
			len(regOf), len(memOf), len(e.slots)-len(e.inputs), len(e.mems))
	}
	e.regOf, e.memOf = regOf, memOf
	return nil
}

// Detach stops recording and releases the simulator.
func (e *Engine) Detach() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.unhook()
	e.sim = nil
}

// unhook removes the engine from its simulator's commit hook, unless
// another engine has since been transplanted onto that simulator.
func (e *Engine) unhook() {
	if e.sim != nil && e.sim.CommitHook() == sim.CommitHook(e) {
		e.sim.SetCommitHook(nil)
	}
}

// Transplant rebinds the engine to a fresh simulator running the same
// design — the board-migration path. History, timelines and savestates
// survive; the caller is expected to restore the new board's state with
// recording live so the restore lands in history as host writes.
func (e *Engine) Transplant(s *sim.Simulator) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	slots := s.StateSlots()
	if len(slots) != len(e.slots) {
		return fmt.Errorf("history: transplant onto a different design (%d state slots, had %d)", len(slots), len(e.slots))
	}
	for i, sl := range slots {
		if sl.Name != e.slots[i].Name {
			return fmt.Errorf("history: transplant onto a different design (slot %d is %q, had %q)", i, sl.Name, e.slots[i].Name)
		}
	}
	mems := s.StateMems()
	if len(mems) != len(e.mems) {
		return fmt.Errorf("history: transplant onto a different design (%d memories, had %d)", len(mems), len(e.mems))
	}
	// Every state the engine keeps holds each memory's recorded depth
	// (Decode checks a blob's), so equal depths let restores index them
	// without checks.
	for i, m := range mems {
		if m.Name != e.mems[i].Name || m.Depth != e.mems[i].Depth {
			return fmt.Errorf("history: transplant onto a different design (memory %d is %q of %d words, had %q of %d)",
				i, m.Name, m.Depth, e.mems[i].Name, e.mems[i].Depth)
		}
	}
	e.unhook()
	e.bind(s, e.cycleReg)
	s.SetCommitHook(e)
	return nil
}

// Suspend pauses (true) or resumes (false) recording. Nested suspends
// stack; the engine suspends itself around its own reconstruction-driven
// restores so they never record as history.
func (e *Engine) Suspend(v bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v {
		e.suspended++
	} else if e.suspended > 0 {
		e.suspended--
	}
}

// cycleNow reads the live cycle tag.
func (e *Engine) cycleNow(pos uint64) uint64 {
	if e.cycleIdx >= 0 {
		return e.live.regs[e.cycleIdx]
	}
	return pos
}

// captureLive copies the live mirror into a dense state.
func (e *Engine) captureLive(pos uint64) denseState {
	ds := denseState{
		pos:   pos,
		cycle: e.cycleNow(pos),
		regs:  append([]uint64(nil), e.live.regs...),
		mems:  make([][]uint64, len(e.live.mems)),
	}
	for i, m := range e.live.mems {
		ds.mems[i] = append([]uint64(nil), m...)
	}
	return ds
}

// applyLive feeds one hook delta batch into the live mirror.
func (e *Engine) applyLive(regs []sim.RegDelta, mems []sim.MemDelta) {
	for _, d := range regs {
		e.live.regs[e.denseOf[d.Slot]] = d.Val
	}
	for _, d := range mems {
		e.live.mems[d.Mem][d.Addr] = d.Val
	}
}

// addSegment appends a fresh segment with the given keyframe.
func (e *Engine) addSegment(t *timeline, kf denseState) *segment {
	e.segGen++
	seg := &segment{
		gen:       e.segGen,
		startPos:  kf.pos,
		endPos:    kf.pos,
		kf:        kf,
		lastCycle: kf.cycle,
		minCycle:  kf.cycle,
		maxCycle:  kf.cycle,
	}
	t.segs = append(t.segs, seg)
	e.nKF++
	return seg
}

// OnTick implements sim.CommitHook.
func (e *Engine) OnTick(_ uint64, regs []sim.RegDelta, mems []sim.MemDelta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sim == nil {
		return
	}
	e.applyLive(regs, mems)
	if e.suspended > 0 {
		return
	}
	e.ensureWritable()
	e.seq++
	pos := e.seq
	cyc := e.cycleNow(pos)
	seg := e.cur.last()
	n0 := len(seg.buf)
	seg.buf = append(seg.buf, recTick)
	seg.buf = binary.AppendVarint(seg.buf, int64(cyc)-int64(seg.lastCycle))
	seg.buf = e.appendDeltas(seg.buf, regs, mems)
	e.bytes += int64(len(seg.buf) - n0)
	seg.cycles = append(seg.cycles, cyc)
	seg.endPos = pos
	seg.lastCycle = cyc
	if cyc < seg.minCycle {
		seg.minCycle = cyc
	}
	if cyc > seg.maxCycle {
		seg.maxCycle = cyc
	}
	e.cursor = pos
	if len(seg.cycles) >= e.cfg.KeyframeEvery {
		e.addSegment(e.cur, e.captureLive(pos))
		e.evict()
	}
}

// OnHostWrite implements sim.CommitHook.
func (e *Engine) OnHostWrite(regs []sim.RegDelta, mems []sim.MemDelta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sim == nil {
		return
	}
	e.applyLive(regs, mems)
	if e.suspended > 0 {
		return
	}
	e.ensureWritable()
	seg := e.cur.last()
	n0 := len(seg.buf)
	seg.buf = append(seg.buf, recHost)
	seg.buf = e.appendDeltas(seg.buf, regs, mems)
	e.bytes += int64(len(seg.buf) - n0)
	pos := e.seq
	if len(seg.hostAt) == 0 || seg.hostAt[len(seg.hostAt)-1].pos != pos {
		seg.hostAt = append(seg.hostAt, posCycle{pos: pos, cycle: seg.lastCycle})
	}
}

func (e *Engine) appendDeltas(buf []byte, regs []sim.RegDelta, mems []sim.MemDelta) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(regs)))
	for _, d := range regs {
		buf = binary.AppendUvarint(buf, uint64(e.denseOf[d.Slot]))
		buf = binary.AppendUvarint(buf, d.Val)
	}
	buf = binary.AppendUvarint(buf, uint64(len(mems)))
	for _, d := range mems {
		buf = binary.AppendUvarint(buf, uint64(d.Mem))
		buf = binary.AppendUvarint(buf, uint64(d.Addr))
		buf = binary.AppendUvarint(buf, d.Val)
	}
	return buf
}

// ensureWritable forks a new timeline when the cursor sits behind the
// tip: history branches instead of being overwritten.
func (e *Engine) ensureWritable() {
	if !e.detached {
		return
	}
	var kf denseState
	if e.pendingKF != nil && e.pendingKF.pos == e.cursor {
		kf = *e.pendingKF
	} else if ds, err := e.reconstruct(e.cursorTL, e.cursor); err == nil {
		kf = ds
	} else {
		// Cursor fell past the horizon while detached; restart from the
		// live state as ground truth.
		kf = e.captureLive(e.cursor)
	}
	e.pendingKF = nil
	e.gcTimelines()
	tl := &timeline{
		id:        e.nextID(),
		parent:    e.cursorTL,
		forkPos:   e.cursor,
		forkCycle: kf.cycle,
	}
	e.timelines = append(e.timelines, tl)
	// The fork keyframe gets a fresh global position so position ranges
	// stay unique across timelines.
	e.seq++
	kf.pos = e.seq
	e.addSegment(tl, kf)
	e.cur, e.cursorTL = tl, tl
	e.cursor = e.seq
	e.detached = false
	e.evict()
}

func (e *Engine) nextID() int {
	id := 0
	for _, t := range e.timelines {
		if t.id >= id {
			id = t.id + 1
		}
	}
	return id
}

// gcTimelines enforces MaxTimelines before a fork: evict the oldest
// timeline that is neither the current one nor an ancestor of the
// cursor.
func (e *Engine) gcTimelines() {
	if len(e.timelines) < e.cfg.MaxTimelines {
		return
	}
	live := map[*timeline]bool{}
	for t := e.cursorTL; t != nil; t = t.parent {
		live[t] = true
	}
	live[e.cur] = true
	for i, t := range e.timelines {
		if live[t] {
			continue
		}
		for _, seg := range t.segs {
			e.bytes -= int64(len(seg.buf))
			e.nKF--
		}
		t.segs = nil
		e.timelines = append(e.timelines[:i], e.timelines[i+1:]...)
		return
	}
}

// evict enforces MaxKeyframes: drop the globally oldest segment,
// advancing the horizon. The segment holding the cursor and the
// current timeline's last segment are never evicted.
func (e *Engine) evict() {
	for e.nKF > e.cfg.MaxKeyframes {
		var victimTL *timeline
		var victim *segment
		for _, t := range e.timelines {
			if len(t.segs) == 0 {
				continue
			}
			s := t.first()
			if t == e.cur && len(t.segs) == 1 {
				continue
			}
			if e.cursorTL == t && e.cursor >= s.startPos && (len(t.segs) == 1 || e.cursor < t.segs[1].startPos) {
				continue
			}
			if victim == nil || s.gen < victim.gen {
				victimTL, victim = t, s
			}
		}
		if victim == nil {
			return
		}
		e.bytes -= int64(len(victim.buf))
		e.nKF--
		// Nil the slot before reslicing: an ancestor timeline never
		// appends again, so its backing array would otherwise keep every
		// evicted keyframe and delta buffer reachable.
		victimTL.segs[0] = nil
		victimTL.segs = victimTL.segs[1:]
		if len(victimTL.segs) == 0 && victimTL != e.cur {
			for i, t := range e.timelines {
				if t == victimTL {
					e.timelines = append(e.timelines[:i], e.timelines[i+1:]...)
					break
				}
			}
		}
	}
}

// reconstruct rebuilds dense state at a position on a timeline lineage:
// nearest keyframe at or below pos, then a forward walk of the recorded
// deltas — the deterministic replay.
func (e *Engine) reconstruct(tl *timeline, pos uint64) (denseState, error) {
	t, p := tl, pos
	for t != nil {
		if len(t.segs) > 0 && p >= t.first().startPos && p <= t.last().endPos {
			i := sort.Search(len(t.segs), func(i int) bool { return t.segs[i].startPos > p }) - 1
			return e.walkSegment(t.segs[i], p)
		}
		if len(t.segs) > 0 && p >= t.first().startPos {
			// Between this timeline's range and its children: a gap
			// (should not happen with well-formed cursors).
			break
		}
		if t.parent == nil {
			break
		}
		if p > t.forkPos {
			break
		}
		t = t.parent
	}
	return denseState{}, dberr.E(dberr.ErrHistoryHorizon,
		"history: position %d is before the recorded horizon", pos)
}

// walkSegment applies a segment's deltas onto a copy of its keyframe up
// to and including position p (and any host writes recorded at p).
func (e *Engine) walkSegment(seg *segment, p uint64) (denseState, error) {
	ds := denseState{
		pos:   p,
		cycle: seg.kf.cycle,
		regs:  append([]uint64(nil), seg.kf.regs...),
		mems:  make([][]uint64, len(seg.kf.mems)),
	}
	for i, m := range seg.kf.mems {
		ds.mems[i] = append([]uint64(nil), m...)
	}
	cur := seg.startPos
	buf := seg.buf
	off := 0
	for off < len(buf) {
		kind := buf[off]
		off++
		if kind == recTick {
			d, n := binary.Varint(buf[off:])
			off += n
			if cur+1 > p {
				return ds, nil
			}
			cur++
			ds.cycle = uint64(int64(ds.cycle) + d)
			off = applyDeltas(buf, off, ds.regs, ds.mems)
		} else {
			// Host write at position cur <= p: part of the state the
			// design held while sitting there.
			off = applyDeltas(buf, off, ds.regs, ds.mems)
		}
	}
	if cur < p {
		return ds, fmt.Errorf("history: internal: position %d beyond segment end %d", p, cur)
	}
	return ds, nil
}

// applyDeltas decodes one record body onto dense state. Records come
// from the commit hook or from a blob Decode checked against the layout
// (Engine.records), so it indexes without checks.
func applyDeltas(buf []byte, off int, regs []uint64, mems [][]uint64) int {
	nr, n := binary.Uvarint(buf[off:])
	off += n
	for i := uint64(0); i < nr; i++ {
		slot, n := binary.Uvarint(buf[off:])
		off += n
		val, n := binary.Uvarint(buf[off:])
		off += n
		regs[slot] = val
	}
	nm, n := binary.Uvarint(buf[off:])
	off += n
	for i := uint64(0); i < nm; i++ {
		id, n := binary.Uvarint(buf[off:])
		off += n
		addr, n := binary.Uvarint(buf[off:])
		off += n
		val, n := binary.Uvarint(buf[off:])
		off += n
		mems[id][addr] = val
	}
	return off
}

// toState converts dense state to the name-keyed form the codec writes.
func (e *Engine) toState(ds denseState) *State {
	st := &State{
		Pos:    ds.pos,
		Cycle:  ds.cycle,
		Regs:   make(map[string]uint64, len(e.slots)),
		Inputs: make(map[string]uint64),
		Mems:   make(map[string][]uint64, len(e.mems)),
	}
	for i, sl := range e.slots {
		if sl.Input {
			st.Inputs[sl.Name] = ds.regs[i]
		} else {
			st.Regs[sl.Name] = ds.regs[i]
		}
	}
	for i, m := range e.mems {
		st.Mems[m.Name] = append([]uint64(nil), ds.mems[i]...)
	}
	return st
}

// vec hands dense state out in the caller's layout; its memories share
// ds's slices.
func (e *Engine) vec(ds *denseState) *Vec {
	v := &Vec{
		Pos:    ds.pos,
		Cycle:  ds.cycle,
		Regs:   make([]uint64, len(e.regOf)),
		Mems:   make([][]uint64, len(e.memOf)),
		Inputs: make([]sim.RegDelta, len(e.inputs)),
	}
	for i, d := range e.regOf {
		v.Regs[i] = ds.regs[d]
	}
	for j, m := range e.memOf {
		v.Mems[j] = ds.mems[m]
	}
	for k, d := range e.inputs {
		v.Inputs[k] = sim.RegDelta{Slot: e.slots[d].Idx, Val: ds.regs[d]}
	}
	return v
}

// StateAt reconstructs the full state at a recorded position on the
// cursor's lineage.
func (e *Engine) StateAt(pos uint64) (*Vec, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ds, err := e.reconstruct(e.cursorTL, pos)
	if err != nil {
		return nil, err
	}
	return e.vec(&ds), nil
}

// LiveDiff compares a state vector in the caller's layout with the live
// mirror, which always equals the board, so a restore of the vector needs
// to write only the state it lists, and a snapshot taken as the vector
// needs to re-read only that state. It returns the positions of the
// registers that differ and, per memory, the differing word addresses in
// ascending order. Registers not held (held[i] false; a nil held holds
// them all) and nil memories are not compared; a held memory must have
// its full depth. The engine must be attached.
func (e *Engine) LiveDiff(regs []uint64, held []bool, mems [][]uint64) (diffRegs []int, diffWords [][]int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, v := range regs {
		if (held == nil || held[i]) && v != e.live.regs[e.regOf[i]] {
			diffRegs = append(diffRegs, i)
		}
	}
	diffWords = make([][]int, len(mems))
	for j, words := range mems {
		live := e.live.mems[e.memOf[j]]
		for a, v := range words {
			if v != live[a] {
				diffWords[j] = append(diffWords[j], a)
			}
		}
	}
	return diffRegs, diffWords
}

// CheckMirror compares the live mirror with the attached simulator and
// reports the first slot or word where they disagree. It is a check for
// tests and diagnostics: nothing else in the engine reads the simulator
// after binding.
func (e *Engine) CheckMirror() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sim == nil {
		return nil
	}
	for i, sl := range e.slots {
		if got := e.sim.SlotValue(sl.Idx); got != e.live.regs[i] {
			return fmt.Errorf("history: mirror holds %s = %#x, simulator %#x", sl.Name, e.live.regs[i], got)
		}
	}
	for i, m := range e.mems {
		words := make([]uint64, m.Depth)
		e.sim.CopyMemInto(m.ID, words)
		for a, v := range words {
			if v != e.live.mems[i][a] {
				return fmt.Errorf("history: mirror holds %s[%d] = %#x, simulator %#x", m.Name, a, e.live.mems[i][a], v)
			}
		}
	}
	return nil
}

// PosForCycle resolves a user cycle to the recorded position on the
// cursor lineage where that cycle (most recently) completed. The whole
// recorded extent of the cursor's timeline is addressable — a rewound
// cursor can scrub forward again up to the tip it came from. Cycles
// ahead of that tip or behind the horizon fail with
// dberr.ErrHistoryHorizon.
func (e *Engine) PosForCycle(c uint64) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.posForCycle(c)
}

func (e *Engine) posForCycle(c uint64) (uint64, error) {
	upper := e.cursor
	tipCycle := e.cursorCycle()
	if len(e.cursorTL.segs) > 0 {
		if end := e.cursorTL.last().endPos; end > upper {
			upper = end
			if lc := e.cursorTL.last().lastCycle; lc > tipCycle {
				tipCycle = lc
			}
		}
	}
	for t := e.cursorTL; t != nil; t = t.parent {
		for i := len(t.segs) - 1; i >= 0; i-- {
			seg := t.segs[i]
			if seg.startPos > upper {
				continue
			}
			if c < seg.minCycle || c > seg.maxCycle {
				continue
			}
			if p, ok := segPosForCycle(seg, c, upper); ok {
				return p, nil
			}
		}
		upper = t.forkPos
	}
	if c > tipCycle {
		return 0, dberr.E(dberr.ErrHistoryHorizon,
			"history: cycle %d is ahead of the current cycle %d", c, tipCycle)
	}
	h := e.horizonCycle()
	if c < h {
		return 0, dberr.E(dberr.ErrHistoryHorizon,
			"history: cycle %d is before the recorded horizon (cycle %d)", c, h)
	}
	return 0, dberr.E(dberr.ErrHistoryHorizon,
		"history: cycle %d is not in recorded history", c)
}

// segPosForCycle finds the last position <= upper in the segment where
// the cycle tag transitioned to c (the moment cycle c completed).
func segPosForCycle(seg *segment, c, upper uint64) (uint64, bool) {
	best := uint64(0)
	found := false
	prev := seg.kf.cycle
	if prev == c && seg.startPos <= upper {
		best, found = seg.startPos, true
	}
	for i, cyc := range seg.cycles {
		pos := seg.startPos + 1 + uint64(i)
		if pos > upper {
			break
		}
		if cyc == c && prev != c {
			best, found = pos, true
		}
		prev = cyc
	}
	return best, found
}

// CycleAt returns the cycle tag of a recorded position on the cursor
// lineage.
func (e *Engine) CycleAt(pos uint64) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ds, err := e.reconstruct(e.cursorTL, pos)
	if err != nil {
		return 0, err
	}
	return ds.cycle, nil
}

// SeekDone moves the cursor after the facade restored the state at pos
// onto the board, and captures the exact live state (historical state
// plus the trigger-config overlay) as the keyframe a subsequent fork
// will start from.
func (e *Engine) SeekDone(pos uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cursor = pos
	e.cursorTL = e.owner(pos)
	e.detached = !(e.cursorTL == e.cur && pos == e.seq)
	if e.detached && e.sim != nil {
		kf := e.captureLive(pos)
		e.pendingKF = &kf
	} else {
		e.pendingKF = nil
	}
}

// owner locates the lineage timeline whose range covers pos, starting
// from the current timeline (positions are globally unique, so at most
// one lineage member matches).
func (e *Engine) owner(pos uint64) *timeline {
	for t := e.cur; t != nil; t = t.parent {
		if len(t.segs) > 0 && pos >= t.first().startPos && pos <= t.last().endPos {
			return t
		}
		if t.parent != nil && pos > t.forkPos {
			break
		}
	}
	return e.cursorTL
}

// Cursor returns the cursor position and its cycle tag.
func (e *Engine) Cursor() (pos, cycle uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cursor, e.cursorCycle()
}

// cursorCycle is the cycle tag at the cursor. At the tip it is the live
// cycle; after a seek it is the cycle of the keyframe SeekDone captured
// there, so asking costs no reconstruction.
func (e *Engine) cursorCycle() uint64 {
	if !e.detached && e.sim != nil {
		return e.cycleNow(e.cursor)
	}
	if kf := e.pendingKF; kf != nil && kf.pos == e.cursor {
		return kf.cycle
	}
	if ds, err := e.reconstruct(e.cursorTL, e.cursor); err == nil {
		return ds.cycle
	}
	return 0
}

// Tip returns the newest recorded position and cycle.
func (e *Engine) Tip() (pos, cycle uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.cur.segs) == 0 {
		return e.seq, 0
	}
	return e.seq, e.cur.last().lastCycle
}

// Horizon returns the oldest reconstructable position and cycle on the
// cursor lineage.
func (e *Engine) Horizon() (pos, cycle uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.horizon()
}

func (e *Engine) horizon() (pos, cycle uint64) {
	root := e.cursorTL
	for t := root; t != nil; t = t.parent {
		if len(t.segs) > 0 {
			root = t
		}
	}
	if len(root.segs) == 0 {
		return e.cursor, e.cursorCycle()
	}
	return root.first().startPos, root.first().kf.cycle
}

func (e *Engine) horizonCycle() uint64 {
	_, c := e.horizon()
	return c
}

// Boundary is one reverse-continue probe restart point.
type Boundary struct {
	Pos   uint64
	Cycle uint64
}

// ProbeBoundaries returns the ascending positions on the cursor lineage
// from which reverse-continue forward probes must restart: every
// keyframe, plus every position carrying host writes (a free-running
// probe cannot reproduce out-of-band writes, so each probe range is
// host-write free). Only boundaries strictly below upto are returned.
func (e *Engine) ProbeBoundaries(upto uint64) []Boundary {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Boundary
	upper := upto
	for t := e.cursorTL; t != nil; t = t.parent {
		for i := len(t.segs) - 1; i >= 0; i-- {
			seg := t.segs[i]
			if seg.startPos >= upper {
				continue
			}
			for j := len(seg.hostAt) - 1; j >= 0; j-- {
				if h := seg.hostAt[j]; h.pos < upper && h.pos > seg.startPos {
					out = append(out, Boundary{Pos: h.pos, Cycle: h.cycle})
				}
			}
			out = append(out, Boundary{Pos: seg.startPos, Cycle: seg.kf.cycle})
		}
		if t.parent == nil {
			break
		}
		upper = t.forkPos + 1
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	// Collapse duplicates (rotation keyframes share the previous
	// segment's end position).
	dedup := out[:0]
	for _, b := range out {
		if len(dedup) == 0 || dedup[len(dedup)-1].Pos != b.Pos {
			dedup = append(dedup, b)
		}
	}
	return dedup
}

// SaveNamed stores the state at the cursor under a name and returns it.
// Savestates are host-side copies: they survive ring eviction, timeline
// GC and board migration.
func (e *Engine) SaveNamed(name string) (*Vec, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var ds denseState
	if !e.detached && e.sim != nil {
		ds = e.captureLive(e.cursor)
		ds.pos = e.cursor
	} else {
		var err error
		ds, err = e.reconstruct(e.cursorTL, e.cursor)
		if err != nil {
			return nil, err
		}
	}
	e.saves[name] = &ds
	return e.vec(&ds), nil
}

// Named returns a stored savestate.
func (e *Engine) Named(name string) (*Vec, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ds, ok := e.saves[name]
	if !ok {
		return nil, false
	}
	return e.vec(ds), true
}

// SaveNames lists stored savestates, sorted.
func (e *Engine) SaveNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.saves))
	for n := range e.saves {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Status is a deterministic summary of the engine.
type Status struct {
	Recording    bool
	Detached     bool
	TimelineID   int
	Timelines    int
	Keyframes    int
	DeltaBytes   int64
	Savestates   int
	CursorPos    uint64
	CursorCycle  uint64
	TipPos       uint64
	TipCycle     uint64
	HorizonPos   uint64
	HorizonCycle uint64
}

// Stat reports the engine summary.
func (e *Engine) Stat() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{
		Recording:   e.sim != nil && e.suspended == 0,
		Detached:    e.detached,
		TimelineID:  e.cursorTL.id,
		Timelines:   len(e.timelines),
		Keyframes:   e.nKF,
		DeltaBytes:  e.bytes,
		Savestates:  len(e.saves),
		CursorPos:   e.cursor,
		CursorCycle: e.cursorCycle(),
		TipPos:      e.seq,
	}
	if len(e.cur.segs) > 0 {
		st.TipCycle = e.cur.last().lastCycle
	}
	st.HorizonPos, st.HorizonCycle = e.horizon()
	return st
}

// TimelineInfo describes one branch for display.
type TimelineInfo struct {
	ID         int
	ParentID   int // -1 for the root
	ForkCycle  uint64
	StartPos   uint64
	EndPos     uint64
	StartCycle uint64
	EndCycle   uint64
	Keyframes  int
	Current    bool
}

// TimelineList returns all live timelines in id order.
func (e *Engine) TimelineList() []TimelineInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]TimelineInfo, 0, len(e.timelines))
	for _, t := range e.timelines {
		ti := TimelineInfo{
			ID:       t.id,
			ParentID: -1,
			Current:  t == e.cursorTL,
		}
		if t.parent != nil {
			ti.ParentID = t.parent.id
			ti.ForkCycle = t.forkCycle
		}
		if len(t.segs) > 0 {
			ti.StartPos = t.first().startPos
			ti.EndPos = t.last().endPos
			ti.StartCycle = t.first().kf.cycle
			ti.EndCycle = t.last().lastCycle
			ti.Keyframes = len(t.segs)
		}
		out = append(out, ti)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// KeyframeInfo is one keyframe row for the scrubbing stream.
type KeyframeInfo struct {
	Gen   uint64
	Pos   uint64
	Cycle uint64
	Bytes uint64 // delta bytes accumulated in the segment so far
}

// KeyframesSince returns keyframes created after gen, oldest first —
// the timeline-scrubbing feed for the wire `history` stream.
func (e *Engine) KeyframesSince(gen uint64) []KeyframeInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []KeyframeInfo
	for _, t := range e.timelines {
		for _, seg := range t.segs {
			if seg.gen > gen {
				out = append(out, KeyframeInfo{
					Gen:   seg.gen,
					Pos:   seg.startPos,
					Cycle: seg.kf.cycle,
					Bytes: uint64(len(seg.buf)),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Gen < out[j].Gen })
	return out
}
