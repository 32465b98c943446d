package dbg

import (
	"context"
	"slices"

	"zoomie/internal/fpga"
)

// knownFrames is what the debugger knows of the board without asking it:
// the contents of every frame it read back or wrote since the board's
// state last changed, and whether the GSR mask is clear. It is gdb's
// target data cache, which is flushed whenever the inferior resumes; here
// the board's state generation says when to flush. The debugger adopts
// the moves it makes itself (its own writebacks, clock advances and boot)
// and forgets everything it knows on any other move.
type knownFrames struct {
	board  *fpga.Board
	gen    uint64
	frames map[[2]int][]uint32 // {SLR, frame} -> contents; never modified in place
	// maskClear: the debugger configured the board or cleared the GSR
	// mask, and nothing but its own actions has changed the board since.
	maskClear bool
}

// known returns what the debugger knows, first forgetting all of it if
// the board's state changed behind the debugger's back.
func (d *Debugger) known() *knownFrames {
	k := &d.kf
	if b := d.Cable.Board; k.board != b || k.gen != b.Generation() {
		*k = knownFrames{board: b, gen: b.Generation(), frames: make(map[[2]int][]uint32)}
	}
	return k
}

// advanced adopts a change the debugger made to the design's state
// without touching the GSR mask — a clock advance or a boot: every frame
// may hold new contents, so none is known any more.
func (k *knownFrames) advanced() {
	k.frames = make(map[[2]int][]uint32)
	k.gen = k.board.Generation()
}

// holds reports whether every frame of a per-SLR set is known.
func (k *knownFrames) holds(frames map[int][]int) bool {
	for slr, fs := range frames {
		for _, f := range fs {
			if _, ok := k.frames[[2]int{slr, f}]; !ok {
				return false
			}
		}
	}
	return true
}

// readFrames returns the given frames of one SLR in order, each the
// caller's to modify. Known frames come from host memory and the rest
// from one coalesced readback, after which they are known too. With
// fresh set every frame is read back, replacing what was known of it.
func (d *Debugger) readFrames(ctx context.Context, slr int, frames []int, fresh bool) ([][]uint32, error) {
	k := d.known()
	out := make([][]uint32, len(frames))
	var miss []int
	for i, f := range frames {
		if data, ok := k.frames[[2]int{slr, f}]; ok && !fresh {
			out[i] = slices.Clone(data)
		} else {
			miss = append(miss, f)
		}
	}
	data, err := d.Cable.ReadbackFramesCtx(ctx, slr, miss)
	if err != nil {
		return nil, err
	}
	for i, f := range frames {
		if out[i] == nil {
			out[i], data = data[0], data[1:]
			k.frames[[2]int{slr, f}] = slices.Clone(out[i])
		}
	}
	return out, nil
}

// wrote records the outcome of the debugger's writeback of frames to one
// SLR, which must follow a readFrames of the same operation. After a
// successful writeback the debugger adopts the generation its writes
// moved the board to, and a written frame is known when a read is sure
// to return it: on a guarded cable verify-after-write has just read it
// back, and on a clean one the GSR mask must be clear, because a masked
// frame reads as zeros. After a failed writeback those frames are not
// known, and the generation is not adopted.
func (d *Debugger) wrote(slr int, frames []int, data [][]uint32, err error) {
	k := &d.kf
	for i, f := range frames {
		if err == nil && (k.maskClear || d.Cable.Guarded()) {
			k.frames[[2]int{slr, f}] = slices.Clone(data[i])
		} else {
			delete(k.frames, [2]int{slr, f})
		}
	}
	if err == nil {
		k.gen = k.board.Generation()
	}
}

// clearGSRMask clears the GSR mask ahead of a snapshot's read, as §4.7
// requires, unless the debugger knows the mask is clear and knows every
// frame to be read, so that nothing would reach the board.
func (d *Debugger) clearGSRMask(frames map[int][]int) error {
	if k := d.known(); k.maskClear && k.holds(frames) {
		return nil
	}
	if err := d.Cable.ClearGSRMask(); err != nil {
		return err
	}
	// Clearing a set mask moves the generation, so frames read through
	// the mask are forgotten here.
	d.known().maskClear = true
	return nil
}

// KnownFrames returns a copy of the frames the debugger would take from
// host memory instead of reading them back, keyed by {SLR, frame}: what a
// board-truth oracle compares with the board itself.
func (d *Debugger) KnownFrames() map[[2]int][]uint32 {
	out := make(map[[2]int][]uint32)
	for key, data := range d.known().frames {
		out[key] = slices.Clone(data)
	}
	return out
}
