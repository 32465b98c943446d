package jtag

import (
	"testing"

	"zoomie/internal/bitstream"
	"zoomie/internal/fpga"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
)

// bootImage builds an image whose state spans all three SLRs with
// distinctive init values.
func bootImage(t *testing.T, dev *fpga.Device) *fpga.Image {
	t.Helper()
	m := rtl.NewModule("boot_dut")
	for i := 0; i < 3; i++ {
		r := m.Reg([]string{"ra", "rb", "rc"}[i], 16, "clk", uint64(0xA00+i))
		m.SetNext(r, rtl.Add(rtl.S(r), rtl.C(1, 16)))
	}
	mem := m.Mem("boot_rom", 8, 16)
	mem.Init = map[int]uint64{0: 0x11, 5: 0x55, 15: 0xFF}
	mem.Write("clk", rtl.C(0, 4), rtl.C(0, 8), rtl.C(0, 1))

	f, err := rtl.Elaborate(rtl.NewDesign("boot_dut", m))
	if err != nil {
		t.Fatal(err)
	}
	sm := fpga.NewStateMap(0, 0)
	for i, name := range []string{"ra", "rb", "rc"} {
		if err := sm.AddReg(fpga.RegLoc{Name: name, Width: 16,
			Addr: fpga.BitAddr{SLR: i, Frame: 20 + i, Bit: 32}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sm.AddMem(fpga.MemLoc{Name: "boot_rom", Width: 8, Depth: 16, SLR: 1, StartFrame: 40}); err != nil {
		t.Fatal(err)
	}
	return &fpga.Image{
		Design: f,
		Clocks: []sim.ClockSpec{{Name: "clk", Period: 1}},
		Map:    sm,
		Device: dev,
	}
}

func TestGenerateConfigStreamShape(t *testing.T) {
	dev := fpga.NewU200()
	img := bootImage(t, dev)
	stream, err := GenerateConfigStream(img)
	if err != nil {
		t.Fatal(err)
	}
	// The §4.4 dissection: count BOUT writes between syncs. Chunk layout
	// here is a single sync followed by 0+1+2 pulses across the SLR
	// chunks, then a final sync for the control write.
	boutTotal := 0
	idcodes := 0
	syncs := 0
	for i := 0; i < len(stream); i++ {
		w := stream[i]
		if w == bitstream.SyncWord {
			syncs++
			continue
		}
		if w == bitstream.NopWord {
			continue
		}
		reg, write, n, ok := bitstream.DecodeHeader(w)
		if !ok {
			t.Fatalf("unrecognized word %#08x at %d", w, i)
		}
		if write && reg == bitstream.RegBOUT {
			boutTotal++
		}
		if write && reg == bitstream.RegIDCODE {
			idcodes++
		}
		if write {
			i += n
		}
	}
	if boutTotal != 0+1+2 {
		t.Errorf("BOUT writes = %d, want 3 (0+1+2 across chunks)", boutTotal)
	}
	if idcodes != 3 {
		t.Errorf("IDCODE writes = %d, want one per SLR chunk", idcodes)
	}
	if syncs != 2 {
		t.Errorf("syncs = %d, want 2", syncs)
	}
}

func TestBootLoadsStateAndStartsClock(t *testing.T) {
	dev := fpga.NewU200()
	img := bootImage(t, dev)
	board := fpga.NewBoard(dev)
	cable := Connect(board)
	if err := cable.Boot(img); err != nil {
		t.Fatal(err)
	}
	if !board.ClockRunning() {
		t.Fatal("clock not started")
	}
	// GSR at the end of configuration resets registers to init; memory
	// init came through frame writes.
	for i, name := range []string{"ra", "rb", "rc"} {
		if v, _ := board.Sim.Peek(name); v != uint64(0xA00+i) {
			t.Errorf("%s = %#x after boot, want %#x", name, v, 0xA00+i)
		}
	}
	for addr, want := range map[int]uint64{0: 0x11, 5: 0x55, 15: 0xFF, 7: 0} {
		if v, _ := board.Sim.PeekMem("boot_rom", addr); v != want {
			t.Errorf("boot_rom[%d] = %#x, want %#x", addr, v, want)
		}
	}
	// And the design executes.
	board.Advance(5)
	if v, _ := board.Sim.Peek("ra"); v != 0xA00+5 {
		t.Errorf("ra = %#x after 5 cycles, want %#x", v, 0xA00+5)
	}
	// Readback of a booted board reflects the stream-written memory.
	frames, err := cable.ReadbackFrames(1, []int{40})
	if err != nil {
		t.Fatal(err)
	}
	if got := frames[0][0] & 0xff; got != 0x11 {
		t.Errorf("frame readback of boot_rom[0] = %#x, want 0x11", got)
	}
}

func TestBootRejectsBrokenImage(t *testing.T) {
	dev := fpga.NewU200()
	img := bootImage(t, dev)
	img.Map = fpga.NewStateMap(0, 0) // state map lost: registers unlocatable
	board := fpga.NewBoard(dev)
	if err := Connect(board).Boot(img); err == nil {
		t.Error("boot with empty state map accepted")
	}
	img2 := bootImage(t, dev)
	img2.Device = nil
	if _, err := GenerateConfigStream(img2); err == nil {
		t.Error("image without device accepted")
	}
}
