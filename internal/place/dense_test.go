package place

import (
	"strings"
	"testing"

	"zoomie/internal/core"
	"zoomie/internal/fpga"
	"zoomie/internal/synth"
	"zoomie/internal/workloads"
)

// TestManycoreStateFramesDense pins the dense state layout on the 48-core
// SoC wrapped with its Debug Controller, as a debug session builds it:
// the design's registers fill 39 consecutive frames, each at least 95%
// full but for its instance's last; no frame mixes registers with memory
// words or state of two top-level instances; and every memory starts
// after its region's last register frame.
func TestManycoreStateFramesDense(t *testing.T) {
	wrapped, _, err := core.Instrument(workloads.ManycoreSoC(48), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	net, err := synth.Synthesize(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Place(net, fpga.NewU200(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sm := pl.StateMap

	type frame struct {
		bits  int
		insts map[string]bool
		mem   bool
	}
	frames := map[[2]int]*frame{} // keyed by {SLR, frame}
	at := func(slr, f int) *frame {
		k := [2]int{slr, f}
		if frames[k] == nil {
			frames[k] = &frame{insts: map[string]bool{}}
		}
		return frames[k]
	}
	first := map[string][2]int{} // each top-level instance's first and last register frame
	last := map[string][2]int{}
	for _, r := range sm.Regs {
		inst, _, _ := strings.Cut(r.Name, ".")
		k := [2]int{r.Addr.SLR, r.Addr.Frame}
		if f, ok := first[inst]; !ok || k[1] < f[1] {
			first[inst] = k
		}
		if l, ok := last[inst]; !ok || k[1] > l[1] {
			last[inst] = k
		}
		fr := at(k[0], k[1])
		fr.bits += r.Width
		fr.insts[inst] = true
	}
	for _, m := range sm.Mems {
		for i := 0; i < m.FrameCount(); i++ {
			at(m.SLR, m.StartFrame+i).mem = true
		}
	}

	dut := 0
	for _, fr := range frames {
		if fr.insts["dut"] {
			dut++
		}
	}
	if dut != 39 || last["dut"][1]-first["dut"][1] != dut-1 {
		t.Errorf("the design's registers occupy %d frames in %d..%d, want 39 consecutive frames",
			dut, first["dut"][1], last["dut"][1])
	}
	if first["zdbg"] != last["zdbg"] {
		t.Errorf("the Debug Controller's registers span frames %d..%d, want one",
			first["zdbg"][1], last["zdbg"][1])
	}
	isLast := map[[2]int]bool{}
	for _, k := range last {
		isLast[k] = true
	}
	for k, fr := range frames {
		if fr.bits > 0 && fr.mem {
			t.Errorf("frame %d of SLR %d mixes %d register bits with memory words", k[1], k[0], fr.bits)
		}
		if len(fr.insts) > 1 {
			t.Errorf("frame %d of SLR %d holds state of top-level instances %v", k[1], k[0], fr.insts)
		}
		if fr.bits > 0 && !isLast[k] && fr.bits*100 < 95*fpga.FrameBits {
			t.Errorf("frame %d of SLR %d holds %d of %d register bits, under 95%%",
				k[1], k[0], fr.bits, fpga.FrameBits)
		}
	}
	for _, r := range pl.Regions[StaticPartition] {
		lo, hi := r.FrameRange(pl.Device)
		lastReg := -1
		for _, reg := range sm.Regs {
			if reg.Addr.SLR == r.SLR && reg.Addr.Frame >= lo && reg.Addr.Frame < hi {
				lastReg = max(lastReg, reg.Addr.Frame)
			}
		}
		for _, m := range sm.Mems {
			if m.SLR == r.SLR && m.StartFrame >= lo && m.StartFrame < hi && m.StartFrame <= lastReg {
				t.Errorf("memory %s starts at frame %d, not after its region's last register frame %d",
					m.Name, m.StartFrame, lastReg)
			}
		}
	}
}
