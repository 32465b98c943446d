package jtag

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"zoomie/internal/faults"
	"zoomie/internal/fpga"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
)

// denseFrames is how many frames of each SLR the dense image maps state
// into: enough for sets larger than maxStreamFrameOps.
const denseFrames = 80

// denseWords are the frame words holding state in the dense image: one
// 32-bit register each.
var denseWords = [...]int{0, 47, 92}

// denseImage maps a 32-bit register into each denseWords word of frames
// [0, frames) of every SLR, each register holding a distinct value, so
// every frame a transfer touches carries state to corrupt and verify.
func denseImage(t *testing.T, dev *fpga.Device, frames int) *fpga.Image {
	t.Helper()
	m := rtl.NewModule("dense")
	sm := fpga.NewStateMap(0, 0)
	for slr := range dev.SLRs {
		for f := 0; f < frames; f++ {
			for _, w := range denseWords {
				name := fmt.Sprintf("s%d_f%d_w%d", slr, f, w)
				r := m.Reg(name, 32, "clk", uint64(slr<<24|f<<8|w)^0x5a5a0000)
				m.SetNext(r, rtl.S(r))
				if err := sm.AddReg(fpga.RegLoc{
					Name: name, Width: 32,
					Addr: fpga.BitAddr{SLR: slr, Frame: f, Bit: 32 * w},
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	d, err := rtl.Elaborate(rtl.NewDesign("dense", m))
	if err != nil {
		t.Fatal(err)
	}
	return &fpga.Image{
		Design: d,
		Clocks: []sim.ClockSpec{{Name: "clk", Period: 1}},
		Map:    sm,
		Device: dev,
	}
}

// connectDense attaches a cable with the given options to a board
// configured with the dense image of denseFrames frames.
func connectDense(t *testing.T, opts Options) *Cable {
	return connectDenseN(t, denseFrames, opts)
}

// connectDenseN is connectDense over a dense image of the given frames.
func connectDenseN(t *testing.T, frames int, opts Options) *Cable {
	t.Helper()
	dev := fpga.NewU200()
	board := fpga.NewBoard(dev)
	if err := board.Configure(denseImage(t, dev, frames)); err != nil {
		t.Fatal(err)
	}
	c := ConnectWithOptions(board, opts)
	c.retry.BaseBackoff = time.Microsecond
	c.retry.MaxBackoff = 10 * time.Microsecond
	return c
}

// guardClean turns on the guarded transport of a cable without an
// injector, with two-deep agreement: a clean link whose stream counts the
// tests below pin at a second agreement depth.
func guardClean(c *Cable) *Cable {
	c.guard = true
	c.retry.Agreement = 2
	return c
}

// guardedLinks are the two fault-free guarded cables: a clean link guarded
// inside the package (Agreement 2) and a bound injector that injects
// nothing (Agreement 3).
func guardedLinks(t *testing.T) map[string]*Cable {
	return map[string]*Cable{
		"guard":    guardClean(connectDense(t, Options{})),
		"injector": connectDense(t, Options{Faults: faults.New(faults.Profile{Seed: 1})}),
	}
}

func span(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// trueFrames reads frames straight from the board, below any injector.
func trueFrames(t *testing.T, c *Cable, slr int, frames []int) [][]uint32 {
	t.Helper()
	out := make([][]uint32, len(frames))
	for i, f := range frames {
		data, err := c.Board.ReadFrame(slr, f)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// stateFrames returns random contents for frames, confined to the bits
// the dense image maps (the board stores nothing else).
func stateFrames(rng *rand.Rand, n int) [][]uint32 {
	out := make([][]uint32, n)
	for i := range out {
		out[i] = make([]uint32, fpga.FrameWords)
		for _, w := range denseWords {
			out[i][w] = rng.Uint32()
		}
	}
	return out
}

func sameFrames(a, b [][]uint32) bool {
	return slices.EqualFunc(a, b, slices.Equal[[]uint32])
}

func TestFusedTransferWithinBoundIsOneStream(t *testing.T) {
	for name, c := range guardedLinks(t) {
		agree := c.retry.Agreement
		for slr := range c.Board.Device.SLRs {
			hops := c.Board.Device.Hops(slr)

			n := maxStreamFrameOps / agree
			frames := append(span(3, n/2), span(40, n-n/2)...)
			c.ResetStats()
			got, err := c.ReadbackFrames(slr, frames)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFrames(got, trueFrames(t, c, slr, frames)) {
				t.Fatalf("%s SLR %d: readback differs from the board", name, slr)
			}
			st := c.Chain.Stats
			if st.Streams != 1 || st.Hops != hops || st.FramesRead != agree*n {
				t.Errorf("%s SLR %d readback of %d frames: %+v, want 1 stream, %d hops, %d frames read",
					name, slr, n, st, hops, agree*n)
			}

			n = maxStreamFrameOps / (agree + 1)
			frames = span(10, n)
			data := stateFrames(rand.New(rand.NewSource(int64(slr))), n)
			c.ResetStats()
			if err := c.WritebackFrames(slr, frames, data); err != nil {
				t.Fatal(err)
			}
			if !sameFrames(trueFrames(t, c, slr, frames), data) {
				t.Fatalf("%s SLR %d: board differs from the written frames", name, slr)
			}
			st = c.Chain.Stats
			if st.Streams != 1 || st.Hops != hops || st.FramesWritten != n || st.FramesRead != agree*n {
				t.Errorf("%s SLR %d writeback of %d frames: %+v, want 1 stream, %d hops, %d written, %d read",
					name, slr, n, st, hops, n, agree*n)
			}
		}
		if cs := c.Stats(); cs.ReReads != 0 || cs.Retries != 0 || cs.Rewrites != 0 {
			t.Errorf("%s: fault-free link reports recovery work %+v", name, cs)
		}
	}
}

// TestFusedTransferLargeSetKeepsStreams pins the streams of a set larger
// than the bound: it is cut into a run of maxStreamFrameOps frames and a
// run of the rest, each transferred to completion in turn, and the
// guarded transfer's chain activity and modeled time equal those of
// executing that stream sequence by hand. The full run's passes and
// writes each fill a stream of their own; the short run fits its writes
// and all its passes in one.
func TestFusedTransferLargeSetKeepsStreams(t *testing.T) {
	const slr = 0
	frames := append(span(0, 30), span(35, maxStreamFrameOps-20)...)
	data := stateFrames(rand.New(rand.NewSource(7)), len(frames))
	full, rest := frames[:maxStreamFrameOps], frames[maxStreamFrameOps:]
	for name, c := range guardedLinks(t) {
		agree := c.retry.Agreement
		reads := repeat(c.transferStream(slr, nil, nil, full), agree)

		ref := connectDense(t, Options{})
		execute := func(streams ...[]uint32) {
			ref.ResetStats()
			for _, s := range streams {
				if _, err := ref.Execute(s); err != nil {
					t.Fatal(err)
				}
			}
		}

		execute(append(reads, c.transferStream(slr, nil, nil, repeat(rest, agree)...))...)
		c.ResetStats()
		got, err := c.ReadbackFrames(slr, frames)
		if err != nil {
			t.Fatal(err)
		}
		if !sameFrames(got, trueFrames(t, c, slr, frames)) {
			t.Fatalf("%s readback differs from the board", name)
		}
		if c.Chain.Stats != ref.Chain.Stats || c.Elapsed() != ref.Elapsed() {
			t.Errorf("%s readback: %+v in %v, want %+v in %v",
				name, c.Chain.Stats, c.Elapsed(), ref.Chain.Stats, ref.Elapsed())
		}

		streams := [][]uint32{c.transferStream(slr, full, data[:maxStreamFrameOps])}
		streams = append(streams, reads...)
		streams = append(streams, c.transferStream(slr, rest, data[maxStreamFrameOps:], repeat(rest, agree)...))
		execute(streams...)
		c.ResetStats()
		if err := c.WritebackFrames(slr, frames, data); err != nil {
			t.Fatal(err)
		}
		if !sameFrames(trueFrames(t, c, slr, frames), data) {
			t.Fatalf("%s: board differs from the written frames", name)
		}
		if c.Chain.Stats != ref.Chain.Stats || c.Elapsed() != ref.Elapsed() {
			t.Errorf("%s writeback: %+v in %v, want %+v in %v",
				name, c.Chain.Stats, c.Elapsed(), ref.Chain.Stats, ref.Elapsed())
		}
	}
}

// repeat returns n copies of v.
func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestLargeGuardedReadSurvivesTransients pins the smallest read of more
// than maxStreamFrameOps frames, over seeds 1 to 20 of chaos_remote's
// link (flip=0.005, exec=0.0025), that exhausted the retries while a large
// set streamed one whole agreement pass per stream: 324 frames of the
// primary at seed 5. One transient error voided a 324-frame stream, nine
// times in a row. Cut into runs, the read returns the board's frames.
func TestLargeGuardedReadSurvivesTransients(t *testing.T) {
	const n = 324
	c := connectDenseN(t, n, Options{Faults: faults.New(faults.Profile{
		Seed: 5, ReadFlip: 0.005, WriteFlip: 0.005, Exec: 0.0025,
	})})
	slr := c.Board.Device.Primary
	frames := span(0, n)
	got, err := c.ReadbackFrames(slr, frames)
	if err != nil {
		t.Fatalf("guarded read of %d frames: %v", n, err)
	}
	if !sameFrames(got, trueFrames(t, c, slr, frames)) {
		t.Fatalf("guarded read of %d frames differs from the board", n)
	}
	if c.Stats().Retries == 0 {
		t.Error("no transient error was retried")
	}
}

// TestFusedTransferProperty drives seeded random readbacks and
// writebacks of sets from one frame to beyond the bound through flip,
// drop, dup and exec faults, checking every returned frame and the board
// after every writeback against the board's true frames.
func TestFusedTransferProperty(t *testing.T) {
	profiles := []faults.Profile{
		{ReadFlip: 0.01, WriteFlip: 0.01},
		{Drop: 0.05, Dup: 0.05},
		{Exec: 0.005},
		{ReadFlip: 0.005, WriteFlip: 0.005, Drop: 0.02, Dup: 0.02, Exec: 0.0025},
	}
	for pi, p := range profiles {
		for seed := int64(1); seed <= 3; seed++ {
			p.Seed = seed
			in := faults.New(p)
			c := connectDense(t, Options{Faults: in})
			rng := rand.New(rand.NewSource(seed*100 + int64(pi)))
			for op := 0; op < 12; op++ {
				slr := rng.Intn(len(c.Board.Device.SLRs))
				density := 1 + rng.Intn(denseFrames) // sets of about 1 to denseFrames frames
				var frames []int
				for f := 0; f < denseFrames; f++ {
					if rng.Intn(denseFrames) < density {
						frames = append(frames, f)
					}
				}
				if len(frames) == 0 {
					frames = []int{rng.Intn(denseFrames)}
				}
				if rng.Intn(2) == 0 {
					got, err := c.ReadbackFrames(slr, frames)
					if err != nil {
						t.Fatalf("profile %s op %d: readback: %v", p, op, err)
					}
					if !sameFrames(got, trueFrames(t, c, slr, frames)) {
						t.Fatalf("profile %s op %d: corrupted readback of %d frames reached the caller",
							p, op, len(frames))
					}
					continue
				}
				data := stateFrames(rng, len(frames))
				if err := c.WritebackFrames(slr, frames, data); err != nil {
					t.Fatalf("profile %s op %d: writeback: %v", p, op, err)
				}
				if !sameFrames(trueFrames(t, c, slr, frames), data) {
					t.Fatalf("profile %s op %d: board differs after a writeback of %d frames",
						p, op, len(frames))
				}
			}
			if in.Stats().Total() == 0 {
				t.Fatalf("profile %s injected nothing", p)
			}
		}
	}
}

func TestFusedTransferBudgets(t *testing.T) {
	// A link that never agrees: every word flips on every read. Each frame
	// is observed exactly the verify budget's reads before ErrVerify.
	c := connectDense(t, Options{Faults: faults.New(faults.Profile{Seed: 3, ReadFlip: 1})})
	if _, err := c.ReadbackFrames(0, span(0, 5)); !errors.Is(err, ErrVerify) {
		t.Fatalf("never-agreeing readback: %v, want ErrVerify", err)
	}
	if want := 5 * (c.verifyBudget() + 2); c.Chain.Stats.FramesRead != want {
		t.Errorf("never-agreeing readback read %d frames, want %d", c.Chain.Stats.FramesRead, want)
	}

	// Writes that never land: each attempt is a write plus a verifying
	// read, until the rewrite budget runs out.
	c = connectDense(t, Options{Faults: faults.New(faults.Profile{Seed: 4, Drop: 1})})
	data := stateFrames(rand.New(rand.NewSource(4)), 2)
	if err := c.WritebackFrames(0, []int{5, 6}, data); !errors.Is(err, ErrVerify) {
		t.Fatalf("dropped writeback: %v, want ErrVerify", err)
	}
	attempts := c.verifyBudget() + 1
	st := c.Chain.Stats
	if st.FramesWritten != 2*attempts || st.FramesRead != 2*attempts*c.retry.Agreement {
		t.Errorf("dropped writeback: %+v, want %d written and %d read",
			st, 2*attempts, 2*attempts*c.retry.Agreement)
	}

	c = connectDense(t, Options{Faults: faults.New(faults.Profile{Seed: 5, Exec: 1})})
	if _, err := c.ReadbackFrames(0, span(0, 5)); !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("exec=1 readback: %v, want ErrRetriesExhausted", err)
	}
	if err := c.WritebackFrames(0, []int{5, 6}, data); !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("exec=1 writeback: %v, want ErrRetriesExhausted", err)
	}
}

// cancelAt is a context that turns to context.Canceled once cond holds.
// The chain checks it between packets and between the frames of a read,
// so a cond on the chain's counters cancels at an exact point mid-stream.
type cancelAt struct {
	context.Context
	cond func() bool
}

func (c cancelAt) Err() error {
	if c.cond() {
		return context.Canceled
	}
	return nil
}

func TestFusedTransferCancelledMidStream(t *testing.T) {
	for name, c := range guardedLinks(t) {
		n := maxStreamFrameOps / (c.retry.Agreement + 1)
		frames := span(0, n)
		stop := n + n/2 // midway through the second agreement pass
		ctx := cancelAt{context.Background(), func() bool { return c.Chain.Stats.FramesRead >= stop }}
		c.ResetStats()
		if _, err := c.ReadbackFramesCtx(ctx, 0, frames); !errors.Is(err, context.Canceled) {
			t.Errorf("%s readback: %v, want context.Canceled", name, err)
		}
		if st := c.Chain.Stats; st.Streams != 1 || st.FramesRead != stop {
			t.Errorf("%s readback: %+v, want %d frames read in 1 stream", name, st, stop)
		}

		stop = n / 2 // midway through the verifying reads after the writes
		data := stateFrames(rand.New(rand.NewSource(1)), n)
		c.ResetStats()
		if err := c.WritebackFramesCtx(ctx, 0, frames, data); !errors.Is(err, context.Canceled) {
			t.Errorf("%s writeback: %v, want context.Canceled", name, err)
		}
		if st := c.Chain.Stats; st.Streams != 1 || st.FramesWritten != n || st.FramesRead != stop {
			t.Errorf("%s writeback: %+v, want %d written and %d read in 1 stream", name, st, n, stop)
		}
	}
}

// TestReReadsCountOnlyRecoveryWork pins CableStats.ReReads to reads
// beyond Agreement per frame: none on a fault-free link, some under flips.
func TestReReadsCountOnlyRecoveryWork(t *testing.T) {
	for _, p := range []faults.Profile{{Seed: 8}, {Seed: 8, ReadFlip: 0.01}} {
		c := connectDense(t, Options{Faults: faults.New(p)})
		for i := 0; i < 20; i++ {
			if _, err := c.ReadbackFrames(i%3, span(4*i, 4)); err != nil {
				t.Fatal(err)
			}
		}
		reReads := c.Stats().ReReads
		if clean := p.ReadFlip == 0; clean != (reReads == 0) {
			t.Errorf("profile %s: ReReads = %d", p, reReads)
		}
	}
}
