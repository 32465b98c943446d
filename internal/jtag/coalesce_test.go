package jtag

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"zoomie/internal/bitstream"
	"zoomie/internal/fpga"
)

// packets lists a stream's register packets, skipping SYNC and padding:
// "REG=v" for a one-word write, "REG×n" for an n-word write or read.
func packets(stream []uint32) []string {
	var out []string
	for i := 0; i < len(stream); {
		reg, write, n, ok := bitstream.DecodeHeader(stream[i])
		i++
		switch {
		case !ok:
		case write && n == 1:
			out = append(out, fmt.Sprintf("%s=%d", reg, stream[i]))
		default:
			out = append(out, fmt.Sprintf("%s×%d", reg, n))
		}
		if ok && write {
			i += n
		}
	}
	return out
}

// TestWritebackCoalescesConsecutiveFrames pins the write twin of the
// coalesced readback: each run of consecutive addresses is one WCFG + FAR
// + FDRI group carrying the run's frames, split only where a run exceeds
// what one packet carries, and a set with gaps is one group per run.
func TestWritebackCoalescesConsecutiveFrames(t *testing.T) {
	const fw = fpga.FrameWords
	per := bitstream.MaxPacketWords / fw
	cases := []struct {
		name   string
		frames []int
		want   []string
	}{
		{"run", span(10, 5), []string{"CMD=1", "FAR=10", fmt.Sprintf("FDRI×%d", 5*fw)}},
		{"gaps", []int{3, 4, 5, 9, 20, 21}, []string{
			"CMD=1", "FAR=3", fmt.Sprintf("FDRI×%d", 3*fw),
			"CMD=1", "FAR=9", fmt.Sprintf("FDRI×%d", fw),
			"CMD=1", "FAR=20", fmt.Sprintf("FDRI×%d", 2*fw),
		}},
		{"long run", span(0, per+3), []string{
			"CMD=1", "FAR=0", fmt.Sprintf("FDRI×%d", per*fw), fmt.Sprintf("FDRI×%d", 3*fw),
		}},
	}
	rng := rand.New(rand.NewSource(7))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := connectDense(t, Options{})
			data := stateFrames(rng, len(tc.frames))
			if got := packets(c.transferStream(1, tc.frames, data)); !slices.Equal(got, tc.want) {
				t.Errorf("stream packets = %v, want %v", got, tc.want)
			}
			c.ResetStats()
			if err := c.WritebackFrames(1, tc.frames, data); err != nil {
				t.Fatal(err)
			}
			s := c.Chain.Stats
			if s.Streams != 1 || s.Commands != len(tc.want) || s.FramesWritten != len(tc.frames) {
				t.Errorf("writeback cost %d streams, %d packets, %d frames; want 1, %d, %d",
					s.Streams, s.Commands, s.FramesWritten, len(tc.want), len(tc.frames))
			}
			// The board stores only the frames the dense image maps state
			// into; the long run reaches past them.
			n := min(len(tc.frames), denseFrames)
			if got := trueFrames(t, c, 1, tc.frames[:n]); !sameFrames(got, data[:n]) {
				t.Error("board does not hold the written frames")
			}
		})
	}
}

// faultyWrite drops or flips the first write of one frame and logs every
// frame write the µc makes.
type faultyWrite struct {
	bitstream.Backend
	frame   int
	flip    bool
	fired   bool
	written []int
}

func (f *faultyWrite) WriteFrame(slr, frame int, data []uint32) error {
	f.written = append(f.written, frame)
	if frame == f.frame && !f.fired {
		f.fired = true
		if !f.flip {
			return nil // dropped: the board keeps the frame's old contents
		}
		data = slices.Clone(data)
		data[denseWords[1]] ^= 1 << 7
	}
	return f.Backend.WriteFrame(slr, frame, data)
}

// TestGuardedWritebackRewritesOnlyFaultedFrame writes a run of five
// frames in one FDRI group over a guarded cable whose link drops or flips
// the middle frame's first write. The µc still writes frame by frame, so
// verify-after-write catches the one bad frame and rewrites it alone.
func TestGuardedWritebackRewritesOnlyFaultedFrame(t *testing.T) {
	for _, flip := range []bool{false, true} {
		name := map[bool]string{false: "drop", true: "flip"}[flip]
		t.Run(name, func(t *testing.T) {
			c := connectDense(t, Options{Guard: true})
			link := &faultyWrite{Backend: boardBackend{c.Board}, frame: 12, flip: flip}
			c.Chain = bitstream.NewChain(link, bitstream.DefaultCostModel())
			frames := span(10, 5)
			data := stateFrames(rand.New(rand.NewSource(3)), len(frames))
			if err := c.WritebackFrames(1, frames, data); err != nil {
				t.Fatal(err)
			}
			if got := trueFrames(t, c, 1, frames); !sameFrames(got, data) {
				t.Fatal("board does not hold the written frames")
			}
			if want := []int{10, 11, 12, 13, 14, 12}; !slices.Equal(link.written, want) {
				t.Errorf("frame writes = %v, want %v", link.written, want)
			}
			if r := c.Stats().Rewrites; r != 1 {
				t.Errorf("rewrites = %d, want 1", r)
			}
			// Two transfers, each one write group and two agreement passes
			// of one read group each: 9 packets apiece.
			if s := c.Chain.Stats; s.Streams != 2 || s.Commands != 18 {
				t.Errorf("writeback cost %d streams, %d packets; want 2, 18", s.Streams, s.Commands)
			}
		})
	}
}

// TestConfigStreamOneFDRIPerFrame pins the stream shape §4.5 dissects: the
// boot image writes every initial-state frame as a WCFG + FAR + FDRI
// group of its own, even where frames are consecutive.
func TestConfigStreamOneFDRIPerFrame(t *testing.T) {
	img := denseImage(t, fpga.NewU200())
	stream, err := GenerateConfigStream(img)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := initialFrames(img)
	if err != nil {
		t.Fatal(err)
	}
	fdri := 0
	pk := packets(stream)
	for i, p := range pk {
		if p == fmt.Sprintf("FDRI×%d", fpga.FrameWords) {
			fdri++
			if i < 2 || pk[i-2] != "CMD=1" || !strings.HasPrefix(pk[i-1], "FAR=") {
				t.Fatalf("FDRI packet %d follows %v, want a WCFG and a FAR", fdri, pk[max(i-2, 0):i])
			}
		}
	}
	if fdri != len(frames) {
		t.Errorf("config stream has %d one-frame FDRI packets for %d frames", fdri, len(frames))
	}
}
