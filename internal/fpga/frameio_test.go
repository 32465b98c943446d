package fpga_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"zoomie/internal/fpga"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
	"zoomie/internal/toolchain"
	"zoomie/internal/workloads"
)

// hostLog records every commit-hook callback, copying the deltas.
type hostLog struct{ calls []string }

func (h *hostLog) OnTick(tick uint64, regs []sim.RegDelta, mems []sim.MemDelta) {
	h.calls = append(h.calls, fmt.Sprint("tick ", tick, regs, mems))
}

func (h *hostLog) OnHostWrite(regs []sim.RegDelta, mems []sim.MemDelta) {
	h.calls = append(h.calls, fmt.Sprint("host ", regs, mems))
}

// pokeFrame is the name-keyed reference of Board.WriteFrame: every
// register and memory word of the frame poked one by one, with a full
// settle after each, in the order the board lists the frame's state
// (registers, then memories, in state-map order).
func pokeFrame(t *testing.T, b *fpga.Board, slr, frame int, data []uint32) {
	t.Helper()
	sm := b.Image.Map
	for _, r := range sm.Regs {
		if r.Addr.SLR == slr && r.Addr.Frame == frame {
			if err := b.Sim.Poke(r.Name, fpga.GetBits(data, r.Addr.Bit, r.Width)); err != nil {
				t.Fatal(err)
			}
			b.Sim.Settle()
		}
	}
	for _, m := range sm.Mems {
		for w := 0; w < m.Depth; w++ {
			if a := m.WordAddr(w); a.SLR == slr && a.Frame == frame {
				if err := b.Sim.PokeMem(m.Name, w, fpga.GetBits(data, a.Bit, m.Width)); err != nil {
					t.Fatal(err)
				}
				b.Sim.Settle()
			}
		}
	}
}

// peekFrame is the name-keyed reference of Board.ReadFrame.
func peekFrame(t *testing.T, b *fpga.Board, slr, frame int) []uint32 {
	t.Helper()
	data := make([]uint32, fpga.FrameWords)
	sm := b.Image.Map
	for _, r := range sm.Regs {
		if r.Addr.SLR == slr && r.Addr.Frame == frame {
			v, err := b.Sim.Peek(r.Name)
			if err != nil {
				t.Fatal(err)
			}
			fpga.PutBits(data, r.Addr.Bit, r.Width, v)
		}
	}
	for _, m := range sm.Mems {
		for w := 0; w < m.Depth; w++ {
			if a := m.WordAddr(w); a.SLR == slr && a.Frame == frame {
				v, err := b.Sim.PeekMem(m.Name, w)
				if err != nil {
					t.Fatal(err)
				}
				fpga.PutBits(data, a.Bit, m.Width, v)
			}
		}
	}
	return data
}

// sameSim requires two simulators of one design to hold identical values
// on every signal, wires and outputs included, and every memory word.
func sameSim(t *testing.T, f *rtl.Flat, a, b *sim.Simulator, ctx string) {
	t.Helper()
	for _, sig := range f.Signals {
		av, _ := a.Peek(sig.Name)
		bv, _ := b.Peek(sig.Name)
		if av != bv {
			t.Fatalf("%s: %s = %#x through the frame, %#x poked item by item", ctx, sig.Name, av, bv)
		}
	}
	for _, m := range f.Memories {
		for w := 0; w < m.Depth; w++ {
			av, _ := a.PeekMem(m.Name, w)
			bv, _ := b.PeekMem(m.Name, w)
			if av != bv {
				t.Fatalf("%s: %s[%d] = %#x through the frame, %#x poked item by item", ctx, m.Name, w, av, bv)
			}
		}
	}
}

// TestResolvedFrameIOMatchesNameKeyed is the differential test of frame
// I/O through resolved simulator slots. Seeded random frame writes, each
// applied whole and settled once, must leave the simulator exactly where
// poking the same values item by item, with a settle after each, leaves
// a twin board, and must fire the same host-write hook calls in the same
// order. Every frame read must equal the frame assembled by name-keyed
// peeks. The engine is the process default, so running the test under
// ZOOMIE_SIM_ENGINE=interp checks the interpreter's full settle as well.
func TestResolvedFrameIOMatchesNameKeyed(t *testing.T) {
	d := workloads.ManycoreSoC(16)
	res, err := toolchain.Compile(d, toolchain.Options{
		Clocks: []sim.ClockSpec{{Name: workloads.Clk, Period: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	img := res.Image
	boards := [2]*fpga.Board{}
	logs := [2]*hostLog{{}, {}}
	for i := range boards {
		boards[i] = fpga.NewBoard(img.Device)
		if err := boards[i].Configure(img); err != nil {
			t.Fatal(err)
		}
		boards[i].Sim.SetCommitHook(logs[i])
		if err := boards[i].Sim.Poke("en", 1); err != nil {
			t.Fatal(err)
		}
		boards[i].StartClock()
	}
	resolved, named := boards[0], boards[1]

	var frames [][2]int
	touched := img.Map.FramesTouched(nil)
	for slr := range img.Device.SLRs {
		for _, f := range touched[slr] {
			frames = append(frames, [2]int{slr, f})
		}
	}
	if len(frames) < 2 {
		t.Fatalf("design places state in %d frames", len(frames))
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 60; round++ {
		n := rng.Intn(40)
		resolved.Advance(n)
		named.Advance(n)

		for _, fr := range frames {
			got, err := resolved.ReadFrame(fr[0], fr[1])
			if err != nil {
				t.Fatal(err)
			}
			if want := peekFrame(t, resolved, fr[0], fr[1]); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: frame %v reads differently from its name-keyed peeks", round, fr)
			}
		}

		fr := frames[rng.Intn(len(frames))]
		data, err := resolved.ReadFrame(fr[0], fr[1])
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite some words at random and keep the rest, so the write
		// changes part of the frame's state and leaves part as it is.
		for w := range data {
			if rng.Intn(3) == 0 {
				data[w] = rng.Uint32()
			}
		}
		if err := resolved.WriteFrame(fr[0], fr[1], data); err != nil {
			t.Fatal(err)
		}
		pokeFrame(t, named, fr[0], fr[1], data)
		ctx := fmt.Sprintf("round %d, frame %v", round, fr)
		sameSim(t, img.Design, resolved.Sim, named.Sim, ctx)
		if !reflect.DeepEqual(logs[0].calls, logs[1].calls) {
			t.Fatalf("%s: the frame write fired different hook calls from the item pokes", ctx)
		}
	}
}
