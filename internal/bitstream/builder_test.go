package bitstream

import (
	"slices"
	"testing"
)

// TestWriteFramesOnePacketGroup pins the write twin of ReadFrames: a run
// of frames is one WCFG + FAR + FDRI group whose FDRI payload carries the
// whole run, and the µc still writes each frame at its own address.
func TestWriteFramesOnePacketGroup(t *testing.T) {
	frames := [][]uint32{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11, 12}}
	got := NewBuilder().WriteFrames(4, 9, frames...).Words()
	want := []uint32{
		WriteHeader(RegCMD, 1), CmdWCFG,
		WriteHeader(RegFAR, 1), 9,
		WriteHeader(RegFDRI, 12), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("WriteFrames stream = %#x, want %#x", got, want)
	}

	be := newFakeBackend(3, 1)
	c := NewChain(be, DefaultCostModel())
	exec(t, c, append([]uint32{SyncWord}, got...))
	for i, f := range frames {
		if d := be.frames[[2]int{1, 9 + i}]; !slices.Equal(d, f) {
			t.Errorf("frame %d = %v, want %v", 9+i, d, f)
		}
	}
	if s := c.Stats; s.Commands != 3 || s.FramesWritten != 3 {
		t.Errorf("stats = %+v, want 3 commands writing 3 frames", s)
	}
}

// TestWriteFramesSplitsAtMaxPacketWords checks a run longer than one
// packet carries is split into FDRI packets of whole frames behind a
// single WCFG and FAR.
func TestWriteFramesSplitsAtMaxPacketWords(t *testing.T) {
	const fw = 4
	per := MaxPacketWords / fw
	frames := make([][]uint32, 2*per+1)
	for i := range frames {
		frames[i] = make([]uint32, fw)
	}
	words := NewBuilder().WriteFrames(fw, 0, frames...).Words()
	var fdri []int
	var others []Reg
	for i := 0; i < len(words); {
		reg, write, n, ok := DecodeHeader(words[i])
		if !ok || !write {
			t.Fatalf("word %d: %#x is not a write header", i, words[i])
		}
		if reg == RegFDRI {
			fdri = append(fdri, n)
		} else {
			others = append(others, reg)
		}
		i += 1 + n
	}
	if want := []int{per * fw, per * fw, fw}; !slices.Equal(fdri, want) {
		t.Errorf("%d FDRI packets of %v... words, want %v", len(fdri), fdri[:min(len(fdri), 3)], want)
	}
	if want := []Reg{RegCMD, RegFAR}; !slices.Equal(others, want) {
		t.Errorf("other packets %v, want %v", others, want)
	}
}
