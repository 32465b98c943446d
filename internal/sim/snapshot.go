package sim

import (
	"fmt"
	"sort"

	"zoomie/internal/rtl"
)

// Snapshot is a complete copy of a design's architectural state: every
// register value and every memory word, keyed by flat hierarchical name.
// Snapshots are what Zoomie reads back from the FPGA and what it writes
// through partial reconfiguration when resuming from saved progress.
type Snapshot struct {
	Cycle uint64
	Regs  map[string]uint64
	Mems  map[string][]uint64
}

// Snapshot captures the current state. The cycle recorded is the count of
// the given clock domain.
func (s *Simulator) Snapshot(domain string) *Snapshot {
	snap := &Snapshot{
		Cycle: s.cycles[domain],
		Regs:  make(map[string]uint64, len(s.Flat.Registers)),
		Mems:  make(map[string][]uint64, len(s.Flat.Memories)),
	}
	for _, r := range s.Flat.Registers {
		snap.Regs[r.Sig.Name] = s.vals[s.sigIndex[r.Sig]]
	}
	for i, m := range s.Flat.Memories {
		snap.Mems[m.Name] = append([]uint64(nil), s.memData[i]...)
	}
	return snap
}

// Restore loads a snapshot's state into the simulator and resettles
// combinational logic. Entries naming unknown state are reported as
// errors; state not mentioned in the snapshot is left untouched, which is
// how partial reconfiguration behaves (only the written tiles change).
// Like Poke it is a host write: the commit hook sees every slot and word
// it changed, in one OnHostWrite.
func (s *Simulator) Restore(snap *Snapshot) error {
	s.hookRegs, s.hookMems = s.hookRegs[:0], s.hookMems[:0]
	err := s.restore(snap)
	s.settle()
	if s.hook != nil && len(s.hookRegs)+len(s.hookMems) > 0 {
		s.hook.OnHostWrite(s.hookRegs, s.hookMems)
	}
	return err
}

func (s *Simulator) restore(snap *Snapshot) error {
	for name, v := range snap.Regs {
		sig := s.byName[name]
		if sig == nil || sig.Kind != rtl.KindReg {
			return fmt.Errorf("sim: snapshot names unknown register %q", name)
		}
		idx := s.sigIndex[sig]
		if nv := rtl.Truncate(v, sig.Width); s.vals[idx] != nv {
			s.vals[idx] = nv
			if s.hook != nil {
				s.hookRegs = append(s.hookRegs, RegDelta{Slot: int32(idx), Val: nv})
			}
		}
	}
	for name, words := range snap.Mems {
		id, ok := s.memByName[name]
		if !ok {
			return fmt.Errorf("sim: snapshot names unknown memory %q", name)
		}
		data := s.memData[id]
		if len(words) != len(data) {
			return fmt.Errorf("sim: snapshot memory %q has %d words, want %d",
				name, len(words), len(data))
		}
		for a, v := range words {
			if data[a] != v {
				data[a] = v
				if s.hook != nil {
					s.hookMems = append(s.hookMems, MemDelta{Mem: id, Addr: int32(a), Val: v})
				}
			}
		}
	}
	return nil
}

// StateNames returns all register names followed by all memory names, each
// group sorted, describing what a full snapshot contains.
func (s *Simulator) StateNames() (regs, mems []string) {
	for _, r := range s.Flat.Registers {
		regs = append(regs, r.Sig.Name)
	}
	for _, m := range s.Flat.Memories {
		mems = append(mems, m.Name)
	}
	sort.Strings(regs)
	sort.Strings(mems)
	return regs, mems
}

// Equal reports whether two snapshots hold identical state (cycle counts
// are ignored; they are bookkeeping, not design state).
func (a *Snapshot) Equal(b *Snapshot) bool {
	if len(a.Regs) != len(b.Regs) || len(a.Mems) != len(b.Mems) {
		return false
	}
	for k, v := range a.Regs {
		if bv, ok := b.Regs[k]; !ok || bv != v {
			return false
		}
	}
	for k, av := range a.Mems {
		bv, ok := b.Mems[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// Diff returns the names of registers whose values differ between the two
// snapshots, sorted. Memories are compared word-wise and reported as
// "name[addr]".
func (a *Snapshot) Diff(b *Snapshot) []string {
	var out []string
	for k, v := range a.Regs {
		if bv, ok := b.Regs[k]; ok && bv != v {
			out = append(out, k)
		}
	}
	for k, av := range a.Mems {
		bv, ok := b.Mems[k]
		if !ok {
			continue
		}
		for i := range av {
			if i < len(bv) && av[i] != bv[i] {
				out = append(out, fmt.Sprintf("%s[%d]", k, i))
			}
		}
	}
	sort.Strings(out)
	return out
}
