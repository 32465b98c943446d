package dbg

import (
	"fmt"

	"zoomie/internal/core"
)

// WaitChange is a watchpoint: it steps the paused design forward until
// the named register's value changes, up to maxCycles. The hardware
// trigger network matches equalities, so change detection runs host-side
// over stepped windows — the design still only ever advances in precise,
// controller-counted steps. Returns the old and new values and how many
// cycles executed.
func (d *Debugger) WaitChange(signal string, maxCycles int) (oldV, newV uint64, cycles int, err error) {
	paused, err := d.Paused()
	if err != nil {
		return 0, 0, 0, err
	}
	if !paused {
		return 0, 0, 0, fmt.Errorf("dbg: watchpoints require a paused design (call Pause first)")
	}
	oldV, err = d.Peek(signal)
	if err != nil {
		return 0, 0, 0, err
	}
	// Geometric step widths: single-cycle precision near the change would
	// need per-cycle readback anyway; a real session balances cable
	// traffic against precision exactly like this.
	step := 1
	for cycles < maxCycles {
		if step > maxCycles-cycles {
			step = maxCycles - cycles
		}
		if err := d.Step(step); err != nil {
			return oldV, 0, cycles, err
		}
		cycles += step
		newV, err = d.Peek(signal)
		if err != nil {
			return oldV, 0, cycles, err
		}
		if newV != oldV {
			return oldV, newV, cycles, nil
		}
		if step < 64 {
			step *= 2
		}
	}
	return oldV, oldV, cycles, fmt.Errorf("dbg: %q did not change within %d cycles", signal, maxCycles)
}

// PeriodicSnapshots pauses the design and captures `count` snapshots of
// the scope, stepping exactly `interval` cycles between captures — the
// §3.4 flow for checkpointing long-running emulation so that any window
// can later be replayed.
//
// Deprecated: the time-travel history engine (internal/history,
// surfaced as Session.Seek/Rewind/ReverseContinue) supersedes
// host-driven periodic checkpointing — it records committed deltas
// continuously with periodic keyframes and reconstructs any cycle
// without stopping the design. This helper is retained as the
// measurement baseline for explicit host-paced checkpointing; new code
// should record with history and ReplayFrom reconstructed states.
func (d *Debugger) PeriodicSnapshots(scope string, interval, count int) ([]*Snapshot, error) {
	if interval <= 0 || count <= 0 {
		return nil, fmt.Errorf("dbg: interval and count must be positive")
	}
	if paused, err := d.Paused(); err != nil {
		return nil, err
	} else if !paused {
		if err := d.Pause(); err != nil {
			return nil, err
		}
	}
	snaps := make([]*Snapshot, 0, count)
	for i := 0; i < count; i++ {
		snap, err := d.Snapshot(scope)
		if err != nil {
			return snaps, err
		}
		snaps = append(snaps, snap)
		if i == count-1 {
			break
		}
		if err := d.Step(interval); err != nil {
			return snaps, err
		}
	}
	return snaps, nil
}

// ReplayFrom restores a snapshot and executes exactly `cycles` cycles
// from it, leaving the design paused — deterministic replay of any
// checkpointed window without rerunning the trillions of cycles before it
// (§3.3).
//
// Like every restore it goes through the one restore core behind
// Restore, RestoreFrames and RestoreVec, which the time-travel history
// engine's seeks, rewinds, reverse-continue probes and savestate loads
// also take, so all replay paths share the same SLR-aware frame plans
// and guarded-cable semantic verification.
func (d *Debugger) ReplayFrom(snap *Snapshot, cycles int) error {
	if paused, err := d.Paused(); err != nil {
		return err
	} else if !paused {
		if err := d.Pause(); err != nil {
			return err
		}
	}
	if err := d.Restore(snap); err != nil {
		return err
	}
	if cycles > 0 {
		return d.Step(cycles)
	}
	return nil
}

// HideBugAndContinue is the §3.3 "deliberately hide known bugs" flow:
// with the design paused at a wedged state, force the given register
// values (the state the design would have reached had the bug not
// fired) and resume execution, preserving emulation progress.
func (d *Debugger) HideBugAndContinue(fixes map[string]uint64) error {
	paused, err := d.Paused()
	if err != nil {
		return err
	}
	if !paused {
		return fmt.Errorf("dbg: pause at the wedged state before forcing values")
	}
	for name, v := range fixes {
		if err := d.Poke(name, v); err != nil {
			return err
		}
	}
	return d.Resume()
}

// ArmedBreakpoints reports the currently armed value-breakpoint indices
// and modes by reading the trigger unit's mask registers back — the host
// can always reconstruct the debug configuration from the design itself.
// All mask registers come back in one planned readback.
func (d *Debugger) ArmedBreakpoints() (all []string, anyOf []string, err error) {
	var names []string
	for i := range d.Meta.Watches {
		names = append(names, d.Meta.Reg(core.RegAndMask(i)), d.Meta.Reg(core.RegOrMask(i)))
	}
	vals, err := d.PeekBatch(names)
	if err != nil {
		return nil, nil, err
	}
	for i, w := range d.Meta.Watches {
		if vals[2*i] != 0 {
			all = append(all, w.Signal)
		}
		if vals[2*i+1] != 0 {
			anyOf = append(anyOf, w.Signal)
		}
	}
	return all, anyOf, nil
}
