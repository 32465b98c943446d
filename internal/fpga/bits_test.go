package fpga

import (
	"math/rand"
	"testing"
)

// bitLoopGet and bitLoopPut are the bit-at-a-time reference the word-wise
// kernel is checked against.
func bitLoopGet(frame []uint32, off, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		bit := off + i
		if frame[bit/32]>>uint(bit%32)&1 != 0 {
			v |= 1 << uint(i)
		}
	}
	return v
}

func bitLoopPut(frame []uint32, off, width int, v uint64) {
	for i := 0; i < width; i++ {
		bit := off + i
		if v>>uint(i)&1 != 0 {
			frame[bit/32] |= 1 << uint(bit%32)
		} else {
			frame[bit/32] &^= 1 << uint(bit%32)
		}
	}
}

// TestBitsMatchBitLoop is a differential test of GetBits/PutBits against
// the bit loop: random offsets, every width 1..64, fields that straddle
// one or two word boundaries, values with bits above the width set, and
// random surrounding frame contents that must survive a put.
func TestBitsMatchBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randFrame := func() []uint32 {
		f := make([]uint32, FrameWords)
		for i := range f {
			f[i] = rng.Uint32()
		}
		return f
	}
	for iter := 0; iter < 20000; iter++ {
		width := 1 + iter%64
		var off int
		switch iter % 3 {
		case 0: // anywhere
			off = rng.Intn(FrameBits - width + 1)
		case 1: // ending just past a word boundary
			w := 1 + rng.Intn(FrameWords-3)
			off = w*32 - width + 1 + rng.Intn(min(width, 31))
		default: // word-aligned start
			off = 32 * rng.Intn((FrameBits-width)/32+1)
		}
		if off < 0 || off+width > FrameBits {
			continue
		}
		frame := randFrame()
		if got, want := GetBits(frame, off, width), bitLoopGet(frame, off, width); got != want {
			t.Fatalf("GetBits(off=%d, width=%d) = %#x, bit loop %#x", off, width, got, want)
		}
		v := rng.Uint64()
		ref := append([]uint32(nil), frame...)
		PutBits(frame, off, width, v)
		bitLoopPut(ref, off, width, v)
		for i := range frame {
			if frame[i] != ref[i] {
				t.Fatalf("PutBits(off=%d, width=%d, v=%#x): word %d = %#x, bit loop %#x",
					off, width, v, i, frame[i], ref[i])
			}
		}
	}
}

// TestBitsFrameEdges reads and writes fields ending on the frame's last
// bit, where a kernel reading one word too far would fault.
func TestBitsFrameEdges(t *testing.T) {
	for width := 1; width <= 64; width++ {
		frame := make([]uint32, FrameWords)
		off := FrameBits - width
		v := uint64(0xfedcba9876543210)
		PutBits(frame, off, width, v)
		want := v
		if width < 64 {
			want &= 1<<uint(width) - 1
		}
		if got := GetBits(frame, off, width); got != want {
			t.Fatalf("width %d at frame end: got %#x, want %#x", width, got, want)
		}
	}
}
