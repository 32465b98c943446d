package dbg

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"zoomie/internal/core"
)

// differingFrames returns the frames holding a register or memory word
// whose value differs between two full-scope snapshots — what a caller
// diffing against a mirror of the board would select.
func (d *Debugger) differingFrames(a, b *Snapshot) map[int][]int {
	var regs []string
	for n, v := range a.Regs {
		if b.Regs[n] != v {
			regs = append(regs, n)
		}
	}
	words := make(map[string][]int)
	for n, ws := range a.Mems {
		for i, w := range ws {
			if b.Mems[n][i] != w {
				words[n] = append(words[n], i)
			}
		}
	}
	return d.FramesOf(regs, words)
}

func frameCount(frames map[int][]int) int {
	n := 0
	for _, fs := range frames {
		n += len(fs)
	}
	return n
}

// TestRestoreFramesBuildsCoveredFrames pins the write-what-you-know rule:
// a restore of the frames a diff selected, every one of which the
// full-scope snapshot covers, issues no readback, writes exactly those
// frames in one writeback, and lands the board on the snapshot.
func TestRestoreFramesBuildsCoveredFrames(t *testing.T) {
	d := session(t, memDesign(), core.Config{UserClock: "clk"}, "clk")
	d.Run(20)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Resume(); err != nil {
		t.Fatal(err)
	}
	d.Run(13)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	now, err := d.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	frames := d.differingFrames(snap, now)
	if frameCount(frames) < 2 {
		t.Fatalf("only %d frames differ; the test needs register and memory frames", frameCount(frames))
	}

	stats := &d.Cable.Chain.Stats
	before, r0, w0 := d.Cable.Stats(), stats.FramesRead, stats.FramesWritten
	if err := d.RestoreFrames(context.Background(), snap, frames); err != nil {
		t.Fatal(err)
	}
	after := d.Cable.Stats()
	if got := after.Readbacks - before.Readbacks; got != 0 {
		t.Errorf("restore of covered frames issued %d readbacks, want 0", got)
	}
	if got := stats.FramesRead - r0; got != 0 {
		t.Errorf("restore of covered frames read %d frames, want 0", got)
	}
	if got := after.Writebacks - before.Writebacks; got != int64(len(frames)) {
		t.Errorf("restore issued %d writebacks, want one per SLR (%d)", got, len(frames))
	}
	if got, want := stats.FramesWritten-w0, frameCount(frames); got != want {
		t.Errorf("restore wrote %d frames, want exactly the %d selected", got, want)
	}
	got, err := d.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got.Regs, snap.Regs) || !maps.EqualFunc(got.Mems, snap.Mems, slices.Equal) {
		t.Error("board does not hold the snapshot after the restore")
	}
}

// TestRestoreFramesPartlyCoveredKeepsOmitted restores a snapshot that
// omits one register of a frame: that frame is patched and written back,
// so the omitted register keeps its board value while the rest of the
// frame is restored. The frame is read back when the debugger does not
// know it (after a clock tick) and taken from host memory when it does
// (right after the pokes wrote it).
func TestRestoreFramesPartlyCoveredKeepsOmitted(t *testing.T) {
	d, _ := multiRegSession(t, 4, nil, false)
	d.Run(5)
	if err := d.Pause(); err != nil {
		t.Fatal(err)
	}
	full, err := d.Snapshot("dut")
	if err != nil {
		t.Fatal(err)
	}
	partial := &Snapshot{Regs: maps.Clone(full.Regs)}
	delete(partial.Regs, "dut.r0")
	var names []string
	for i := 0; i < 4; i++ {
		names = append(names, fmt.Sprintf("dut.r%d", i))
	}
	frames := d.FramesOf(names, nil)
	if frameCount(frames) != 1 {
		t.Fatalf("dut.r0..r3 span %d frames; the test needs them to share one", frameCount(frames))
	}

	for _, known := range []bool{true, false} {
		for i, name := range names {
			if err := d.Poke(name, 0x700+uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		want := int64(0)
		if !known {
			d.Run(1) // the design stays paused; the frame becomes unknown
			want = 1
		}
		before := d.Cable.Stats()
		if err := d.RestoreFrames(context.Background(), partial, frames); err != nil {
			t.Fatal(err)
		}
		if got := d.Cable.Stats().Readbacks - before.Readbacks; got != want {
			t.Errorf("known=%v: restore of a partly covered frame issued %d readbacks, want %d", known, got, want)
		}
		if v, _ := d.Peek("r0"); v != 0x700 {
			t.Errorf("known=%v: omitted r0 = %#x after restore, want its board value 0x700", known, v)
		}
		for _, name := range names[1:] {
			if v, _ := d.Peek(name); v != full.Regs[name] {
				t.Errorf("known=%v: %s = %#x after restore, want %#x", known, name, v, full.Regs[name])
			}
		}
	}
}
