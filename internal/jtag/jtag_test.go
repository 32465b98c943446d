package jtag

import (
	"testing"

	"zoomie/internal/bitstream"
	"zoomie/internal/fpga"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
)

// probeImage builds the §4.5 probe design: three registers initialized to
// different constants, each constrained to a different SLR.
func probeImage(t *testing.T, dev *fpga.Device) *fpga.Image {
	t.Helper()
	m := rtl.NewModule("probe")
	for i := 0; i < 3; i++ {
		name := "r" + string(rune('0'+i))
		r := m.Reg(name, 16, "clk", uint64(0x100*(i+1)))
		m.SetNext(r, rtl.S(r)) // holds its constant
	}
	f, err := rtl.Elaborate(rtl.NewDesign("probe", m))
	if err != nil {
		t.Fatal(err)
	}
	sm := fpga.NewStateMap(0, 0)
	for i := 0; i < 3; i++ {
		name := "r" + string(rune('0'+i))
		if err := sm.AddReg(fpga.RegLoc{
			Name: name, Width: 16,
			Addr: fpga.BitAddr{SLR: i, Frame: 11, Bit: 0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return &fpga.Image{
		Design: f,
		Clocks: []sim.ClockSpec{{Name: "clk", Period: 1}},
		Map:    sm,
		Device: dev,
		Regions: []fpga.Region{
			{Name: "dyn", SLR: 0, Row: 0, Col: 0, Rows: 1, Cols: 125},
		},
	}
}

func connectProbe(t *testing.T) *Cable {
	t.Helper()
	dev := fpga.NewU200()
	board := fpga.NewBoard(dev)
	if err := board.Configure(probeImage(t, dev)); err != nil {
		t.Fatal(err)
	}
	return Connect(board)
}

func TestReadbackFromEachSLR(t *testing.T) {
	// §4.5 "Reading Back from Different SLRs": the same frame address on
	// each SLR holds that SLR's probe register.
	c := connectProbe(t)
	for slr, want := range []uint64{0x100, 0x200, 0x300} {
		frames, err := c.ReadbackFrames(slr, []int{11})
		if err != nil {
			t.Fatal(err)
		}
		got := uint64(frames[0][0] & 0xffff)
		if got != want {
			t.Errorf("SLR %d readback = %#x, want %#x", slr, got, want)
		}
	}
}

func TestReadbackCoalescesConsecutiveFrames(t *testing.T) {
	c := connectProbe(t)
	c.ResetStats()
	if _, err := c.ReadbackFrames(0, []int{5, 6, 7, 20, 21}); err != nil {
		t.Fatal(err)
	}
	if c.Chain.Stats.FramesRead != 5 {
		t.Errorf("frames read = %d, want 5", c.Chain.Stats.FramesRead)
	}
	// Two runs + one SLR selection (2 hops to SLR0): command count stays
	// small because runs coalesce into single FDRO reads.
	if c.Chain.Stats.Hops != 2 {
		t.Errorf("hops = %d, want 2", c.Chain.Stats.Hops)
	}
}

func TestClockControlThroughCable(t *testing.T) {
	c := connectProbe(t)
	if c.Board.ClockRunning() {
		t.Fatal("clock running before StartClock")
	}
	if err := c.StartClock(); err != nil {
		t.Fatal(err)
	}
	if !c.Board.ClockRunning() {
		t.Error("StartClock did not start clock")
	}
	if err := c.StopClock(); err != nil {
		t.Fatal(err)
	}
	if c.Board.ClockRunning() {
		t.Error("StopClock did not stop clock")
	}
}

func TestCTLRejectedOnSecondarySLR(t *testing.T) {
	c := connectProbe(t)
	stream := bitstream.NewBuilder().Sync().SelectSLR(1).StopClock().Words()
	if _, err := c.Execute(stream); err == nil {
		t.Error("CTL write on secondary SLR accepted")
	}
}

func TestWritebackMutatesState(t *testing.T) {
	c := connectProbe(t)
	frames, err := c.ReadbackFrames(2, []int{11})
	if err != nil {
		t.Fatal(err)
	}
	frames[0][0] = 0xABCD
	if err := c.WritebackFrames(2, []int{11}, frames); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Board.Sim.Peek("r2"); v != 0xABCD {
		t.Errorf("r2 = %#x after writeback, want 0xABCD", v)
	}
}

func TestWritebackLengthMismatch(t *testing.T) {
	c := connectProbe(t)
	if err := c.WritebackFrames(0, []int{1, 2}, make([][]uint32, 1)); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMaskRegisterSelectsImageRegion(t *testing.T) {
	c := connectProbe(t)
	stream := bitstream.NewBuilder().Sync().SetGSRMask(0).Words()
	if _, err := c.Execute(stream); err != nil {
		t.Fatal(err)
	}
	if !c.Board.GSRMasked() {
		t.Fatal("mask not applied")
	}
	if err := c.ClearGSRMask(); err != nil {
		t.Fatal(err)
	}
	if c.Board.GSRMasked() {
		t.Error("mask not cleared")
	}
	// Selecting a region that does not exist fails.
	stream = bitstream.NewBuilder().Sync().SetGSRMask(9).Words()
	if _, err := c.Execute(stream); err == nil {
		t.Error("missing region accepted")
	}
}

func TestReadbackTimeScalesWithFrames(t *testing.T) {
	// The mechanism behind Table 3: naive full-SLR scans cost ~87x more
	// modeled time than scanning just the frames holding the MUT.
	c := connectProbe(t)
	slr := c.Board.Device.SLRs[0]

	c.ResetStats()
	all := make([]int, slr.Frames)
	for i := range all {
		all[i] = i
	}
	if _, err := c.ReadbackFrames(0, all); err != nil {
		t.Fatal(err)
	}
	naive := c.Elapsed()

	c.ResetStats()
	few := make([]int, 230)
	for i := range few {
		few[i] = i
	}
	if _, err := c.ReadbackFrames(0, few); err != nil {
		t.Fatal(err)
	}
	opt := c.Elapsed()

	ratio := float64(naive) / float64(opt)
	if ratio < 60 || ratio > 110 {
		t.Errorf("naive/optimized readback ratio = %.1f, want ~87", ratio)
	}
	if naive.Seconds() < 30 || naive.Seconds() > 38 {
		t.Errorf("naive SLR scan = %v, want ~33.6s", naive)
	}
}

func TestEmptyReadbackIsNoOp(t *testing.T) {
	c := connectProbe(t)
	out, err := c.ReadbackFrames(0, nil)
	if err != nil || out != nil {
		t.Errorf("empty readback = %v, %v", out, err)
	}
	if err := c.WritebackFrames(0, nil, nil); err != nil {
		t.Errorf("empty writeback: %v", err)
	}
}
