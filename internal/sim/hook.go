package sim

import "zoomie/internal/rtl"

// RegDelta is one committed change to an architectural state slot (a
// register or an input port). Slot indexes the simulator's value array;
// StateSlots maps slots to flat names.
type RegDelta struct {
	Slot int32
	Val  uint64
}

// MemDelta is one committed change to a memory word. Mem is the stable
// memory id (the memory's index in Flat.Memories; StateMems maps ids to
// names).
type MemDelta struct {
	Mem  int32
	Addr int32
	Val  uint64
}

// CommitHook observes committed state changes. It is the delta-export
// seam the time-travel history engine records through: because the
// commit loops already change-detect (that is what feeds the dirty-set
// settler), the hook only ever sees slots whose values actually changed,
// so recording cost is proportional to design activity, not design size.
//
// OnTick fires once per simulator tick, after commit and settle, with
// the register and memory words that changed in that tick. OnHostWrite
// fires for out-of-band host mutations: once per changed slot or word of
// a WriteState (the path configuration-frame writes from the debugger
// land on, and Poke/PokeMem's), once per Restore. The delta slices
// are scratch buffers owned by the simulator: implementations must
// consume or copy them before returning and must not retain them.
//
// Hook callbacks run synchronously on the caller's goroutine and must
// not call back into the Simulator's mutating methods.
type CommitHook interface {
	OnTick(tick uint64, regs []RegDelta, mems []MemDelta)
	OnHostWrite(regs []RegDelta, mems []MemDelta)
}

// SetCommitHook installs (or, with nil, removes) the commit hook. With a
// hook installed the interpreter engine's commit loop change-detects
// exactly like the compiled engine's, so both engines feed the hook
// identical delta streams.
func (s *Simulator) SetCommitHook(h CommitHook) { s.hook = h }

// CommitHook returns the installed commit hook, nil if none.
func (s *Simulator) CommitHook() CommitHook { return s.hook }

// StateSlot describes one architecturally writable state slot: a
// register or an input port. Wires and outputs are functions of these
// and are excluded — reconstructing slots and re-settling reconstructs
// everything.
type StateSlot struct {
	Idx   int32
	Name  string
	Width int
	Input bool // input port (not restorable through configuration frames)
}

// StateSlots returns every state slot in the stable Flat.Signals order.
func (s *Simulator) StateSlots() []StateSlot {
	var out []StateSlot
	for _, sig := range s.Flat.Signals {
		if sig.Kind == rtl.KindWire || sig.Kind == rtl.KindOutput {
			continue
		}
		out = append(out, StateSlot{
			Idx:   int32(s.sigIndex[sig]),
			Name:  sig.Name,
			Width: sig.Width,
			Input: sig.Kind == rtl.KindInput,
		})
	}
	return out
}

// StateMem describes one memory as seen by MemDelta ids.
type StateMem struct {
	ID    int32
	Name  string
	Depth int
	Width int
}

// StateMems returns every memory in the stable Flat.Memories order; the
// slice index equals the MemDelta id.
func (s *Simulator) StateMems() []StateMem {
	out := make([]StateMem, len(s.Flat.Memories))
	for i, m := range s.Flat.Memories {
		out[i] = StateMem{ID: int32(i), Name: m.Name, Depth: m.Depth, Width: m.Width}
	}
	return out
}

// SlotValue reads one state slot directly; it is the hook-side
// counterpart of Peek for keyframe capture.
func (s *Simulator) SlotValue(idx int32) uint64 { return s.vals[idx] }

// CopyMemInto copies the backing words of memory id into dst, which must
// have the memory's depth.
func (s *Simulator) CopyMemInto(id int32, dst []uint64) {
	copy(dst, s.memData[id])
}
