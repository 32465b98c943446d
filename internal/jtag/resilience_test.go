package jtag

import (
	"errors"
	"testing"
	"time"

	"zoomie/internal/faults"
	"zoomie/internal/fpga"
)

// connectChaos attaches a guarded cable to a freshly configured probe
// board through a fault injector.
func connectChaos(t *testing.T, p faults.Profile) (*Cable, *faults.Injector) {
	t.Helper()
	dev := fpga.NewU200()
	board := fpga.NewBoard(dev)
	if err := board.Configure(probeImage(t, dev)); err != nil {
		t.Fatal(err)
	}
	in := faults.New(p)
	return ConnectWithOptions(board, Options{Faults: in}), in
}

// TestUnguardedByDefault: a cable is guarded exactly when a fault injector
// is bound, one that injects nothing included, and every guarded cable
// agrees three reads deep.
func TestUnguardedByDefault(t *testing.T) {
	board := func() *fpga.Board {
		dev := fpga.NewU200()
		b := fpga.NewBoard(dev)
		if err := b.Configure(probeImage(t, dev)); err != nil {
			t.Fatal(err)
		}
		return b
	}
	chaos, _ := connectChaos(t, faults.Profile{Seed: 1, ReadFlip: 0.01, Exec: 0.005})
	for _, tc := range []struct {
		name    string
		c       *Cable
		guarded bool
	}{
		{"Connect", connectProbe(t), false},
		{"no injector", ConnectWithOptions(board(), Options{}), false},
		{"quiet injector", ConnectWithOptions(board(), Options{Faults: faults.New(faults.Profile{Seed: 1})}), true},
		{"chaos injector", chaos, true},
	} {
		if got := tc.c.Guarded(); got != tc.guarded {
			t.Errorf("%s: Guarded() = %v, want %v", tc.name, got, tc.guarded)
		}
		if tc.guarded && tc.c.retry.Agreement != 3 {
			t.Errorf("%s: agreement depth %d, want 3", tc.name, tc.c.retry.Agreement)
		}
	}
}

func TestVerifiedReadbackSurvivesFlips(t *testing.T) {
	// 1% per-word read flips — the chaos stress rate. Every readback must
	// still return the true register values.
	c, in := connectChaos(t, faults.Profile{Seed: 11, ReadFlip: 0.01})
	for round := 0; round < 50; round++ {
		for slr, want := range []uint64{0x100, 0x200, 0x300} {
			frames, err := c.ReadbackFrames(slr, []int{11})
			if err != nil {
				t.Fatalf("round %d SLR %d: %v", round, slr, err)
			}
			if got := uint64(frames[0][0] & 0xffff); got != want {
				t.Fatalf("round %d: corrupted read reached the caller: SLR %d = %#x, want %#x",
					round, slr, got, want)
			}
		}
	}
	if in.Stats().ReadFlips == 0 {
		t.Fatal("no read flips fired at a 1% rate over 150 frame reads")
	}
}

func TestVerifiedWritebackSurvivesWriteFaults(t *testing.T) {
	// Flipped, dropped and duplicated writes at once: after every guarded
	// writeback the board must hold exactly the intended value.
	c, in := connectChaos(t, faults.Profile{
		Seed: 12, WriteFlip: 0.01, Drop: 0.1, Dup: 0.1,
	})
	frame := make([]uint32, fpga.FrameWords)
	for round := 0; round < 40; round++ {
		want := uint32(0x1000 + round)
		frame[0] = want // only mapped bits: r0 is 16 bits at bit 0
		if err := c.WritebackFrames(0, []int{11}, [][]uint32{frame}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got, err := c.Board.ReadFrame(0, 11)
		if err != nil {
			t.Fatal(err)
		}
		if got[0]&0xffff != want {
			t.Fatalf("round %d: board holds %#x, want %#x — a faulty write went undetected",
				round, got[0]&0xffff, want)
		}
	}
	st := in.Stats()
	if st.Drops == 0 || st.Dups == 0 {
		t.Fatalf("fault mix did not fire: %+v", st)
	}
	if c.Stats().Rewrites == 0 {
		t.Fatal("writes survived drops without any verify-after-write rewrite")
	}
}

func TestExecuteRetriesTransientErrors(t *testing.T) {
	c, in := connectChaos(t, faults.Profile{Seed: 13, Exec: 0.2})
	for i := 0; i < 100; i++ {
		if err := c.StopClock(); err != nil {
			t.Fatalf("op %d failed despite retries: %v", i, err)
		}
	}
	if c.Stats().Retries == 0 {
		t.Fatal("no retries recorded at a 20% transient rate")
	}
	if in.Stats().ExecErrors == 0 {
		t.Fatal("no transient errors fired")
	}
}

func TestRetriesExhaustedOnPersistentTransients(t *testing.T) {
	c, _ := connectChaos(t, faults.Profile{Seed: 14, Exec: 1.0})
	c.retry.BaseBackoff = time.Microsecond
	c.retry.MaxBackoff = 10 * time.Microsecond
	err := c.StopClock()
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("got %v, want ErrRetriesExhausted", err)
	}
	if !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("exhaustion error must wrap the last transient cause: %v", err)
	}
}

func TestWedgedBoardFailsFast(t *testing.T) {
	c, in := connectChaos(t, faults.Profile{Seed: 15})
	if err := c.Probe(); err != nil {
		t.Fatalf("probe of a healthy board: %v", err)
	}
	in.Wedge()
	start := time.Now()
	if err := c.Probe(); !errors.Is(err, faults.ErrWedged) {
		t.Fatalf("probe of a wedged board returned %v, want ErrWedged", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("wedge detection took %v — it must fail fast, not retry", took)
	}
	if _, err := c.ReadbackFrames(0, []int{11}); !errors.Is(err, faults.ErrWedged) {
		t.Fatal("readback of a wedged board must fail with ErrWedged")
	}
}

func TestChaosDeterminism(t *testing.T) {
	run := func() (CableStats, faults.Stats) {
		c, in := connectChaos(t, faults.Profile{
			Seed: 16, ReadFlip: 0.01, WriteFlip: 0.01, Drop: 0.05, Exec: 0.02,
		})
		c.retry.BaseBackoff = time.Microsecond
		c.retry.MaxBackoff = 10 * time.Microsecond
		frame := make([]uint32, fpga.FrameWords)
		for i := 0; i < 20; i++ {
			frame[0] = uint32(i)
			if err := c.WritebackFrames(0, []int{11}, [][]uint32{frame}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ReadbackFrames(1, []int{11}); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats(), in.Stats()
	}
	c1, i1 := run()
	c2, i2 := run()
	if c1 != c2 || i1 != i2 {
		t.Fatalf("identical seeds diverged:\ncable %+v vs %+v\nfaults %+v vs %+v", c1, c2, i1, i2)
	}
	if i1.Total() == 0 {
		t.Fatal("chaos run injected nothing")
	}
}
