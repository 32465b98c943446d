package dbg

import (
	"context"
	"fmt"
	"sort"

	"zoomie/internal/dberr"
	"zoomie/internal/fpga"
)

// PlanItem is one request in a batched frame plan: a register or one
// memory word, identified the same way Peek/PeekMem resolve names. For
// write plans Value carries the data to force.
type PlanItem struct {
	Name  string // register or memory name (bare names resolve under "dut.")
	Mem   bool   // true: Name is a memory and Addr selects the word
	Addr  int    // memory word address; ignored for registers
	Value uint64 // value to write (write plans only)
}

// planSlot is a resolved item: where its bits live on the fabric.
type planSlot struct {
	slr   int
	frame int
	bit   int
	width int
}

// framePlan is a compiled batch: every item resolved to a slot, plus the
// deduplicated, sorted frame set grouped per SLR. Executing the plan
// costs at most one coalesced readback (and for writes one writeback)
// per SLR it touches, none for an SLR whose frames the debugger already
// knows — the paper's §4.7 SLR-aware access pattern applied to arbitrary
// request sets instead of whole snapshots.
type framePlan struct {
	slots  []planSlot
	perSLR map[int][]int // SLR -> sorted unique frame numbers
	slrs   []int         // sorted SLR visit order (determinism)
}

// PartialBatchError reports a plan that failed on some SLRs but completed
// on the rest. Values decoded from the surviving SLRs are returned
// alongside it; items on the failed SLRs read as zero. It unwraps to both
// dberr.ErrPartialBatch (classification) and the first underlying cable
// error (so errors.Is still sees e.g. faults.ErrWedged).
type PartialBatchError struct {
	FailedSLRs []int // sorted SLRs whose readback or writeback failed
	Cause      error // first underlying transport error
}

func (e *PartialBatchError) Error() string {
	return fmt.Sprintf("dbg: batch partially failed on SLR %v: %v", e.FailedSLRs, e.Cause)
}

func (e *PartialBatchError) Unwrap() []error {
	return []error{dberr.ErrPartialBatch, e.Cause}
}

// plan resolves a request set into a framePlan. Resolution errors carry
// the same message text the single-signal API always produced, wrapped
// over dberr sentinels so callers can classify with errors.Is.
func (d *Debugger) plan(items []PlanItem, write bool) (*framePlan, error) {
	p := &framePlan{
		slots:  make([]planSlot, len(items)),
		perSLR: make(map[int][]int),
	}
	seen := make(map[[2]int]bool)
	for i, it := range items {
		flat, ok := d.resolve(it.Name)
		if !ok {
			if !it.Mem && !write {
				return nil, dberr.E(dberr.ErrUnknownState,
					"dbg: no state element %q (wires are not state; read the registers feeding them)", it.Name)
			}
			return nil, dberr.E(dberr.ErrUnknownState, "dbg: no state element %q", it.Name)
		}
		var s planSlot
		if it.Mem {
			loc, ok := d.Image.Map.Mem(flat)
			if !ok {
				if write {
					return nil, dberr.E(dberr.ErrIsRegister, "dbg: %q is a register; use Poke", it.Name)
				}
				return nil, dberr.E(dberr.ErrIsRegister, "dbg: %q is a register; use Peek", it.Name)
			}
			if it.Addr < 0 || it.Addr >= loc.Depth {
				return nil, dberr.E(dberr.ErrOutOfRange,
					"dbg: %s[%d] out of range (depth %d)", it.Name, it.Addr, loc.Depth)
			}
			wa := loc.WordAddr(it.Addr)
			s = planSlot{slr: wa.SLR, frame: wa.Frame, bit: wa.Bit, width: loc.Width}
		} else {
			loc, ok := d.Image.Map.Reg(flat)
			if !ok {
				if write {
					return nil, dberr.E(dberr.ErrIsMemory, "dbg: %q is a memory; use PokeMem", it.Name)
				}
				return nil, dberr.E(dberr.ErrIsMemory, "dbg: %q is a memory; use PeekMem", it.Name)
			}
			s = planSlot{slr: loc.Addr.SLR, frame: loc.Addr.Frame, bit: loc.Addr.Bit, width: loc.Width}
		}
		if write && s.width < 64 && it.Value >= 1<<uint(s.width) {
			return nil, dberr.E(dberr.ErrWidthMismatch,
				"dbg: value %#x does not fit %q (%d bits)", it.Value, it.Name, s.width)
		}
		p.slots[i] = s
		key := [2]int{s.slr, s.frame}
		if !seen[key] {
			seen[key] = true
			p.perSLR[s.slr] = append(p.perSLR[s.slr], s.frame)
		}
	}
	for slr, frames := range p.perSLR {
		sort.Ints(frames)
		p.slrs = append(p.slrs, slr)
	}
	sort.Ints(p.slrs)
	return p, nil
}

// readFrameSet reads a per-SLR frame set — known frames from host memory
// and the rest in one coalesced readback per SLR, in sorted SLR order for
// determinism (with fresh set, every frame from the board) — and indexes
// the frames by {SLR, frame}. An SLR whose readback fails is recorded
// rather than aborting the batch: the result carries every surviving
// frame plus a *PartialBatchError naming the failed SLRs. Context
// cancellation is not a partial failure; it aborts the set immediately
// with ctx.Err().
func (d *Debugger) readFrameSet(ctx context.Context, perSLR map[int][]int, fresh bool) (map[[2]int][]uint32, error) {
	slrs := sortedSLRs(perSLR)
	out := make(map[[2]int][]uint32)
	var failed []int
	var cause error
	for _, slr := range slrs {
		frames := perSLR[slr]
		data, err := d.readFrames(ctx, slr, frames, fresh)
		if err != nil {
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			failed = append(failed, slr)
			if cause == nil {
				cause = err
			}
			continue
		}
		for i, f := range frames {
			out[[2]int{slr, f}] = data[i]
		}
	}
	if cause != nil {
		if len(failed) == len(slrs) {
			return out, cause
		}
		return out, &PartialBatchError{FailedSLRs: failed, Cause: cause}
	}
	return out, nil
}

// ReadPlan executes a batched read: one coalesced readback per SLR the
// items touch, of the frames the debugger does not already know, then
// every value decoded from the frames. On a partial failure the
// surviving values are returned together with a *PartialBatchError;
// values on failed SLRs are zero.
func (d *Debugger) ReadPlan(ctx context.Context, items []PlanItem) ([]uint64, error) {
	p, err := d.plan(items, false)
	if err != nil {
		return nil, err
	}
	frameData, err := d.readFrameSet(ctx, p.perSLR, false)
	vals := make([]uint64, len(items))
	for i, s := range p.slots {
		if fd := frameData[[2]int{s.slr, s.frame}]; fd != nil {
			vals[i] = fpga.GetBits(fd, s.bit, s.width)
		}
	}
	if err != nil {
		return vals, err
	}
	return vals, nil
}

// WritePlan executes a batched force: per SLR, one coalesced readback of
// the touched frames the debugger does not already know, every item's
// bits patched in, and one coalesced writeback — read-modify-write with
// at most two cable operations per SLR no matter how many values are
// forced. Later items win when two target the same bits.
func (d *Debugger) WritePlan(ctx context.Context, items []PlanItem) error {
	p, err := d.plan(items, true)
	if err != nil {
		return err
	}
	var failed []int
	var cause error
	for _, slr := range p.slrs {
		frames := p.perSLR[slr]
		slrFail := func(err error) bool {
			if err == nil {
				return false
			}
			failed = append(failed, slr)
			if cause == nil {
				cause = err
			}
			return true
		}
		data, err := d.readFrames(ctx, slr, frames, false)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			slrFail(err)
			continue
		}
		index := make(map[int][]uint32, len(frames))
		for i, f := range frames {
			index[f] = data[i]
		}
		for i, s := range p.slots {
			if s.slr != slr {
				continue
			}
			fpga.PutBits(index[s.frame], s.bit, s.width, items[i].Value)
		}
		err = d.Cable.WritebackFramesCtx(ctx, slr, frames, data)
		d.wrote(slr, frames, data, err)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			slrFail(err)
		}
	}
	if cause != nil {
		if len(failed) == len(p.slrs) {
			return cause
		}
		return &PartialBatchError{FailedSLRs: failed, Cause: cause}
	}
	return nil
}

// PeekBatch reads many registers in one planned pass — the batch
// counterpart of Peek. All names are resolved like Peek resolves them.
func (d *Debugger) PeekBatch(names []string) ([]uint64, error) {
	return d.PeekBatchCtx(context.Background(), names)
}

// PeekBatchCtx is PeekBatch under a context.
func (d *Debugger) PeekBatchCtx(ctx context.Context, names []string) ([]uint64, error) {
	items := make([]PlanItem, len(names))
	for i, n := range names {
		items[i] = PlanItem{Name: n}
	}
	return d.ReadPlan(ctx, items)
}

// PokeBatch forces many registers in one planned pass — the batch
// counterpart of Poke. values[i] is written to names[i].
func (d *Debugger) PokeBatch(names []string, values []uint64) error {
	return d.PokeBatchCtx(context.Background(), names, values)
}

// PokeBatchCtx is PokeBatch under a context.
func (d *Debugger) PokeBatchCtx(ctx context.Context, names []string, values []uint64) error {
	if len(names) != len(values) {
		return fmt.Errorf("dbg: %d names but %d values", len(names), len(values))
	}
	items := make([]PlanItem, len(names))
	for i, n := range names {
		items[i] = PlanItem{Name: n, Value: values[i]}
	}
	return d.WritePlan(ctx, items)
}
