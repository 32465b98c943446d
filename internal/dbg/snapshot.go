package dbg

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"zoomie/internal/core"
	"zoomie/internal/fpga"
	"zoomie/internal/jtag"
)

// Snapshot is a host-side copy of design state, keyed by flat names —
// what Zoomie saves to preserve emulation progress and replays to resume
// from (§3.3).
type Snapshot struct {
	Scope string
	Cycle uint64
	Regs  map[string]uint64
	Mems  map[string][]uint64
}

// stateUnder collects the register and memory names under an instance
// prefix ("" = everything, including the Debug Controller).
func (d *Debugger) stateUnder(prefix string) (regs, mems []string) {
	match := func(name string) bool {
		if prefix == "" {
			return true
		}
		return name == prefix || strings.HasPrefix(name, prefix+".")
	}
	for _, r := range d.Image.Map.Regs {
		if match(r.Name) {
			regs = append(regs, r.Name)
		}
	}
	for _, m := range d.Image.Map.Mems {
		if match(m.Name) {
			mems = append(mems, m.Name)
		}
	}
	return regs, mems
}

// Snapshot captures all state under an instance prefix using the
// SLR-aware optimization: each SLR is visited once and only the frames
// that actually hold the scope's state are scanned (§4.7). It also clears
// the GSR mask first — partial reconfiguration leaves it set and readback
// would be silently wrong otherwise.
func (d *Debugger) Snapshot(prefix string) (*Snapshot, error) {
	return d.SnapshotCtx(context.Background(), prefix)
}

// SnapshotCtx is Snapshot under a context: cancellation aborts between
// (and, on the cable, within) the per-SLR coalesced readbacks. It is
// SnapshotFrames with an empty base, which reads every frame of the
// scope; the cycle counter's frame is selected too, so Cycle comes from
// the same readback.
func (d *Debugger) SnapshotCtx(ctx context.Context, prefix string) (*Snapshot, error) {
	base := &Snapshot{Scope: d.qualifyPrefix(prefix)}
	return d.SnapshotFrames(ctx, base, d.FramesOf([]string{d.Meta.Reg(core.RegCycles)}, nil))
}

// SnapshotFrames is the one snapshot read path. It reads the selected
// frames — known frames from host memory, the rest after clearing the GSR
// mask in one coalesced readback per SLR — and returns base patched with
// every value of base's scope those frames hold. Scope state outside the
// selection keeps base's value; scope state base does not hold is read
// as well. So an empty base reads the whole scope, while a refresh
// selects just the frames holding a value that differs from base on the
// board and still returns what a full read would. Cycle comes from the
// cycle counter's frame when it is read and from base otherwise.
// Memories no read frame touches share base's slice (snapshots are never
// mutated). With nothing to read, or nothing the debugger does not know
// while it knows the mask is clear, no cable operation is issued at all.
func (d *Debugger) SnapshotFrames(ctx context.Context, base *Snapshot, frames map[int][]int) (*Snapshot, error) {
	regs, mems := d.stateUnder(base.Scope)
	if len(regs) == 0 && len(mems) == 0 {
		return nil, fmt.Errorf("dbg: no state under %q", base.Scope)
	}
	missing := make(map[string]bool)
	for _, n := range regs {
		if _, ok := base.Regs[n]; !ok {
			missing[n] = true
		}
	}
	for _, n := range mems {
		if loc, _ := d.Image.Map.Mem(n); len(base.Mems[n]) != loc.Depth {
			missing[n] = true
		}
	}
	if len(missing) > 0 {
		frames = unionFrames(frames, d.Image.Map.FramesTouched(missing))
	}

	var frameData map[[2]int][]uint32
	if len(frames) > 0 {
		if err := d.clearGSRMask(frames); err != nil {
			return nil, err
		}
		var err error
		if frameData, err = d.readFrameSet(ctx, frames, false); err != nil {
			return nil, err
		}
	}

	snap := &Snapshot{
		Scope: base.Scope,
		Cycle: base.Cycle,
		Regs:  make(map[string]uint64, len(regs)),
		Mems:  make(map[string][]uint64, len(mems)),
	}
	for _, name := range regs {
		loc, _ := d.Image.Map.Reg(name)
		if frame, ok := frameData[[2]int{loc.Addr.SLR, loc.Addr.Frame}]; ok {
			snap.Regs[name] = fpga.GetBits(frame, loc.Addr.Bit, loc.Width)
		} else {
			snap.Regs[name] = base.Regs[name]
		}
	}
	for _, name := range mems {
		loc, _ := d.Image.Map.Mem(name)
		snap.Mems[name] = patchMem(loc, base.Mems[name], frameData)
	}
	if loc, ok := d.Image.Map.Reg(d.Meta.Reg(core.RegCycles)); ok {
		if frame, ok := frameData[[2]int{loc.Addr.SLR, loc.Addr.Frame}]; ok {
			snap.Cycle = fpga.GetBits(frame, loc.Addr.Bit, loc.Width)
		}
	}
	return snap, nil
}

// patchMem returns a memory's words: base itself when no read frame
// holds any of them, otherwise a copy with every word the read frames
// hold taken from them.
func patchMem(loc fpga.MemLoc, base []uint64, frameData map[[2]int][]uint32) []uint64 {
	var words []uint64
	wpf := loc.WordsPerFrame()
	for f := 0; f < loc.FrameCount(); f++ {
		frame, ok := frameData[[2]int{loc.SLR, loc.StartFrame + f}]
		if !ok {
			continue
		}
		if words == nil {
			words = make([]uint64, loc.Depth)
			copy(words, base)
		}
		for w := f * wpf; w < min((f+1)*wpf, loc.Depth); w++ {
			words[w] = fpga.GetBits(frame, loc.WordAddr(w).Bit, loc.Width)
		}
	}
	if words == nil {
		return base
	}
	return words
}

// unionFrames merges two per-SLR frame sets, sorted and deduplicated.
func unionFrames(a, b map[int][]int) map[int][]int {
	out := make(map[int][]int, len(a)+len(b))
	for _, set := range []map[int][]int{a, b} {
		for slr, fs := range set {
			out[slr] = append(out[slr], fs...)
		}
	}
	for slr, fs := range out {
		sort.Ints(fs)
		out[slr] = slices.Compact(fs)
	}
	return out
}

// Vec is design state indexed like the image's state map: Regs[i] holds
// the value of Map.Regs[i] and Mems[j] the words of Map.Mems[j]. A
// register whose Held entry is false, and a memory whose entry is nil,
// is absent: a restore leaves it as the board has it. A nil Held holds
// every register. Restores take a Vec so that nothing on their path
// looks a name up: Resolve maps a name-keyed snapshot onto one once.
type Vec struct {
	Regs []uint64
	Held []bool
	Mems [][]uint64
}

func (v *Vec) holds(i int) bool { return v.Held == nil || v.Held[i] }

// covers reports whether v holds every piece of state in items.
func (v *Vec) covers(items []fpga.FrameItem) bool {
	for _, it := range items {
		if it.Mem && v.Mems[it.Index] == nil || !it.Mem && !v.holds(int(it.Index)) {
			return false
		}
	}
	return true
}

// put counts the values of v among the items of frame f whose bits in
// data differ from them, writing them in when write is set.
func (v *Vec) put(sm *fpga.StateMap, f int, data []uint32, items []fpga.FrameItem, write bool) int {
	n := 0
	for _, it := range items {
		if !it.Mem {
			if v.holds(int(it.Index)) {
				r := &sm.Regs[it.Index]
				n += putField(data, r.Addr.Bit, r.Width, v.Regs[it.Index], write)
			}
			continue
		}
		if words := v.Mems[it.Index]; words != nil {
			m := &sm.Mems[it.Index]
			w0, w1 := m.FrameWords(f)
			for w := w0; w < w1; w++ {
				n += putField(data, (w-w0)*m.Width, m.Width, words[w], write)
			}
		}
	}
	return n
}

// putField compares one width-truncated value with its bits in a frame,
// returning 1 when they differ, and writes it in when write is set.
func putField(frame []uint32, off, width int, val uint64, write bool) int {
	if width < 64 {
		val &= 1<<uint(width) - 1
	}
	if fpga.GetBits(frame, off, width) == val {
		return 0
	}
	if write {
		fpga.PutBits(frame, off, width, val)
	}
	return 1
}

// Resolve maps a name-keyed snapshot onto a Vec over this image, looking
// each name up once. Registers and memories the image does not hold, and
// memories of another depth, are left absent and counted in skipped; with
// strict set the first of them is an error instead. The Vec shares the
// snapshot's memory slices.
func (d *Debugger) Resolve(snap *Snapshot, strict bool) (v *Vec, skipped int, err error) {
	sm := d.Image.Map
	v = &Vec{
		Regs: make([]uint64, len(sm.Regs)),
		Held: make([]bool, len(sm.Regs)),
		Mems: make([][]uint64, len(sm.Mems)),
	}
	for n, val := range snap.Regs {
		i, ok := sm.RegIndex(n)
		if !ok {
			if strict {
				return nil, 0, fmt.Errorf("dbg: snapshot register %q not in this image", n)
			}
			skipped++
			continue
		}
		v.Regs[i], v.Held[i] = val, true
	}
	for n, words := range snap.Mems {
		j, ok := sm.MemIndex(n)
		switch {
		case !ok && strict:
			return nil, 0, fmt.Errorf("dbg: snapshot memory %q not in this image", n)
		case ok && len(words) != sm.Mems[j].Depth && strict:
			return nil, 0, fmt.Errorf("dbg: snapshot memory %q has %d words, image wants %d",
				n, len(words), sm.Mems[j].Depth)
		case !ok || len(words) != sm.Mems[j].Depth:
			skipped++
		default:
			v.Mems[j] = words
		}
	}
	return v, skipped, nil
}

// framesOf returns, per SLR, the sorted frames holding any state of v.
func (d *Debugger) framesOf(v *Vec) map[int][]int {
	sm := d.Image.Map
	var regs []int
	for i := range sm.Regs {
		if v.holds(i) {
			regs = append(regs, i)
		}
	}
	words := make([][]int, len(sm.Mems))
	for j, m := range sm.Mems {
		for w := 0; v.Mems[j] != nil && w < m.Depth; w += m.WordsPerFrame() {
			words[j] = append(words[j], w)
		}
	}
	return sm.FramesHolding(regs, words)
}

// Restore writes a snapshot back through partial reconfiguration,
// touching only the frames that hold the snapshot's state and leaving
// everything else intact (§4.7 "Resuming from Snapshot Data"). It cannot
// know which of those frames differ from the board, so it reads every
// one it does not already know — that readback is its diff — and writes
// only the frames whose patched bits changed.
func (d *Debugger) Restore(snap *Snapshot) error {
	return d.RestoreCtx(context.Background(), snap)
}

// RestoreCtx is Restore under a context.
func (d *Debugger) RestoreCtx(ctx context.Context, snap *Snapshot) error {
	v, _, err := d.Resolve(snap, true)
	if err != nil {
		return err
	}
	return d.restore(ctx, v, d.framesOf(v), false)
}

// FramesOf returns, per SLR, the sorted frames holding the named
// registers and the listed words of the named memories. Names this image
// does not hold, and words past a memory's depth, are ignored.
func (d *Debugger) FramesOf(regs []string, words map[string][]int) map[int][]int {
	sm := d.Image.Map
	var ri []int
	for _, n := range regs {
		if i, ok := sm.RegIndex(n); ok {
			ri = append(ri, i)
		}
	}
	wi := make([][]int, len(sm.Mems))
	for n, addrs := range words {
		if j, ok := sm.MemIndex(n); ok {
			for _, a := range addrs {
				if a >= 0 && a < sm.Mems[j].Depth {
					wi[j] = append(wi[j], a)
				}
			}
		}
	}
	return sm.FramesHolding(ri, wi)
}

// RestoreFrames restores the frames a caller knows to differ from the
// snapshot — a time-travel seek selects the frames holding a value that
// differs from the live state. It is RestoreVec over the snapshot
// resolved once.
func (d *Debugger) RestoreFrames(ctx context.Context, snap *Snapshot, frames map[int][]int) error {
	v, _, err := d.Resolve(snap, true)
	if err != nil {
		return err
	}
	return d.RestoreVec(ctx, v, frames)
}

// RestoreVec restores the frames a caller knows to differ from v. State
// of v outside the selection must already hold its value on the board. A
// selected frame v covers, holding every register placed in it and every
// word of every memory in it, is built on the host and written without a
// readback; any other selected frame is read, patched and written back if
// its bits changed, so the state v lacks keeps its board value. On a
// guarded cable the restore is additionally verified semantically: every
// frame written is re-read and its values compared, with mismatching
// frames restored again — catching corruption that slips in between the
// transport's own verify-after-write and the final state.
func (d *Debugger) RestoreVec(ctx context.Context, v *Vec, frames map[int][]int) error {
	return d.restore(ctx, v, frames, true)
}

// restore is the one restore core behind every restore; build selects
// whether covered frames are built rather than read.
func (d *Debugger) restore(ctx context.Context, v *Vec, frames map[int][]int, build bool) error {
	written, err := d.restoreOnce(ctx, v, frames, build)
	if err != nil || !d.Cable.Guarded() {
		return err
	}
	for attempt := 0; ; attempt++ {
		bad, n, err := d.restoreMismatch(ctx, v, written)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if attempt >= 2 {
			return fmt.Errorf("%w: %d snapshot values failed semantic verification after restore",
				jtag.ErrVerify, n)
		}
		if written, err = d.restoreOnce(ctx, v, bad, build); err != nil {
			return err
		}
	}
}

// restoreOnce performs one pass over a frame set, per SLR in sorted
// order, and returns the frames written. With build set, a frame v
// covers is built on the host: in this model a frame carries only state,
// so its base is zero (on hardware it would be the configuration image's
// frame), and it is written unconditionally. Every other frame is taken
// from the known frames or read in one coalesced readback, patched, and
// written back only if its bits changed. All of an SLR's writes share one
// writeback.
func (d *Debugger) restoreOnce(ctx context.Context, v *Vec, frames map[int][]int, build bool) (map[int][]int, error) {
	sm := d.Image.Map
	written := make(map[int][]int)
	for _, slr := range sortedSLRs(frames) {
		fs := frames[slr]
		covered := make([]bool, len(fs))
		var read []int
		for i, f := range fs {
			if covered[i] = build && v.covers(sm.FrameItems(slr, f)); !covered[i] {
				read = append(read, f)
			}
		}
		data, err := d.readFrames(ctx, slr, read, false)
		if err != nil {
			return nil, err
		}
		var wf []int
		var wd [][]uint32
		for i, f := range fs {
			var frame []uint32
			if covered[i] {
				frame = make([]uint32, fpga.FrameWords)
			} else {
				frame, data = data[0], data[1:]
			}
			if v.put(sm, f, frame, sm.FrameItems(slr, f), true) > 0 || covered[i] {
				wf, wd = append(wf, f), append(wd, frame)
			}
		}
		if len(wf) == 0 {
			continue
		}
		err = d.Cable.WritebackFramesCtx(ctx, slr, wf, wd)
		d.wrote(slr, wf, wd, err)
		if err != nil {
			return nil, err
		}
		written[slr] = wf
	}
	return written, nil
}

// restoreMismatch re-reads a frame set from the board, never from known
// frames, and returns the frames holding a value of v the board
// disagrees with, plus how many values disagree.
func (d *Debugger) restoreMismatch(ctx context.Context, v *Vec, frames map[int][]int) (map[int][]int, int, error) {
	frameData, err := d.readFrameSet(ctx, frames, true)
	if err != nil {
		return nil, 0, err
	}
	sm := d.Image.Map
	bad := make(map[int][]int)
	n := 0
	for _, slr := range sortedSLRs(frames) {
		for _, f := range frames[slr] {
			if m := v.put(sm, f, frameData[[2]int{slr, f}], sm.FrameItems(slr, f), false); m > 0 {
				n += m
				bad[slr] = append(bad[slr], f)
			}
		}
	}
	return bad, n, nil
}

// sortedSLRs returns a per-SLR frame set's SLRs in ascending order.
func sortedSLRs(frames map[int][]int) []int {
	slrs := make([]int, 0, len(frames))
	for slr := range frames {
		slrs = append(slrs, slr)
	}
	sort.Ints(slrs)
	return slrs
}

// RestoreCompatible restores the subset of a snapshot that still exists
// in this image, returning how many entries were skipped. This is the
// §4.7 resume-after-recompile flow: after VTI swaps the iterated
// partition, the partition's own state is new, but everything untouched
// resumes exactly where it was.
func (d *Debugger) RestoreCompatible(snap *Snapshot) (skipped int, err error) {
	v, skipped, _ := d.Resolve(snap, false)
	return skipped, d.restore(context.Background(), v, d.framesOf(v), false)
}

// NaiveReadbackSLR scans every frame of one SLR — the unoptimized
// baseline of Table 3 — and returns the modeled time it took.
func (d *Debugger) NaiveReadbackSLR(slr int) (time.Duration, error) {
	before := d.Cable.Elapsed()
	total := d.Cable.Board.Device.SLRs[slr].Frames
	frames := make([]int, total)
	for i := range frames {
		frames[i] = i
	}
	if _, err := d.Cable.ReadbackFrames(slr, frames); err != nil {
		return 0, err
	}
	return d.Cable.Elapsed() - before, nil
}

// OptimizedReadbackSLR scans only the frames of the given scope's state
// on one SLR, returning the modeled time.
func (d *Debugger) OptimizedReadbackSLR(slr int, prefix string) (time.Duration, error) {
	prefix = d.qualifyPrefix(prefix)
	regs, mems := d.stateUnder(prefix)
	names := make(map[string]bool)
	for _, n := range regs {
		names[n] = true
	}
	for _, n := range mems {
		names[n] = true
	}
	frames := d.Image.Map.FramesTouched(names)[slr]
	if len(frames) == 0 {
		return 0, fmt.Errorf("dbg: scope %q has no state on SLR %d", prefix, slr)
	}
	before := d.Cable.Elapsed()
	if _, err := d.Cable.ReadbackFrames(slr, frames); err != nil {
		return 0, err
	}
	return d.Cable.Elapsed() - before, nil
}
