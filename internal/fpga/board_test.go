package fpga

import (
	"testing"

	"zoomie/internal/rtl"
	"zoomie/internal/sim"
)

// testImage builds a tiny image by hand: a counter register placed on SLR0
// frame 3 and a 4-word memory on SLR2 starting at frame 9.
func testImage(t *testing.T, dev *Device) *Image {
	t.Helper()
	m := rtl.NewModule("dut")
	en := m.Input("en", 1)
	cnt := m.Reg("cnt", 8, "clk", 5)
	m.SetNext(cnt, rtl.Add(rtl.S(cnt), rtl.C(1, 8)))
	m.SetEnable(cnt, rtl.S(en))
	mem := m.Mem("buf", 16, 4)
	mem.Init = map[int]uint64{0: 0x1111, 1: 0x2222, 2: 0x3333, 3: 0x4444}
	mem.Write("clk", rtl.C(0, 2), rtl.C(0, 16), rtl.C(0, 1))
	q := m.Output("q", 8)
	m.Connect(q, rtl.S(cnt))

	f, err := rtl.Elaborate(rtl.NewDesign("dut", m))
	if err != nil {
		t.Fatal(err)
	}
	sm := NewStateMap(0, 0)
	if err := sm.AddReg(RegLoc{Name: "cnt", Width: 8, Addr: BitAddr{SLR: 0, Frame: 3, Bit: 16}}); err != nil {
		t.Fatal(err)
	}
	if err := sm.AddMem(MemLoc{Name: "buf", Width: 16, Depth: 4, SLR: 2, StartFrame: 9}); err != nil {
		t.Fatal(err)
	}
	return &Image{
		Design: f,
		Clocks: []sim.ClockSpec{{Name: "clk", Period: 1}},
		Map:    sm,
		Device: dev,
	}
}

func TestBoardConfigureAndClock(t *testing.T) {
	dev := NewU200()
	b := NewBoard(dev)
	if b.Configured() {
		t.Fatal("unconfigured board claims configured")
	}
	img := testImage(t, dev)
	if err := b.Configure(img); err != nil {
		t.Fatal(err)
	}
	if !b.Configured() || b.ClockRunning() {
		t.Fatal("freshly configured board should have stopped clock")
	}
	b.Sim.Poke("en", 1)
	b.Advance(10)
	if v, _ := b.Sim.Peek("q"); v != 5 {
		t.Errorf("design ran with stopped clock: q=%d", v)
	}
	b.StartClock()
	b.Advance(10)
	if v, _ := b.Sim.Peek("q"); v != 15 {
		t.Errorf("q = %d after 10 running cycles, want 15", v)
	}
	b.StopClock()
	b.Advance(10)
	if v, _ := b.Sim.Peek("q"); v != 15 {
		t.Errorf("q = %d after stop, want 15", v)
	}
}

func TestBoardRejectsWrongDevice(t *testing.T) {
	img := testImage(t, NewU200())
	b := NewBoard(NewU250())
	if err := b.Configure(img); err == nil {
		t.Error("image for U200 accepted on U250")
	}
}

func TestFrameReadbackMatchesState(t *testing.T) {
	dev := NewU200()
	b := NewBoard(dev)
	if err := b.Configure(testImage(t, dev)); err != nil {
		t.Fatal(err)
	}
	b.Sim.Poke("en", 1)
	b.StartClock()
	b.Advance(7) // cnt = 5 + 7 = 12
	data, err := b.ReadFrame(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := GetBits(data, 16, 8); got != 12 {
		t.Errorf("readback cnt = %d, want 12", got)
	}
	// Memory words on SLR2 frame 9: 16-bit words packed from bit 0.
	mdata, err := b.ReadFrame(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{0x1111, 0x2222, 0x3333, 0x4444} {
		if got := GetBits(mdata, i*16, 16); got != want {
			t.Errorf("readback buf[%d] = %#x, want %#x", i, got, want)
		}
	}
}

func TestFrameWriteMutatesState(t *testing.T) {
	dev := NewU200()
	b := NewBoard(dev)
	if err := b.Configure(testImage(t, dev)); err != nil {
		t.Fatal(err)
	}
	data, err := b.ReadFrame(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	PutBits(data, 16, 8, 200)
	if err := b.WriteFrame(0, 3, data); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Sim.Peek("cnt"); v != 200 {
		t.Errorf("cnt = %d after frame write, want 200", v)
	}
	// Mutate one memory word through its frame.
	mdata, _ := b.ReadFrame(2, 9)
	PutBits(mdata, 2*16, 16, 0xBEEF)
	if err := b.WriteFrame(2, 9, mdata); err != nil {
		t.Fatal(err)
	}
	if v, _ := b.Sim.PeekMem("buf", 2); v != 0xBEEF {
		t.Errorf("buf[2] = %#x, want 0xBEEF", v)
	}
	if v, _ := b.Sim.PeekMem("buf", 1); v != 0x2222 {
		t.Errorf("buf[1] = %#x, must be untouched", v)
	}
}

func TestFrameBoundsChecking(t *testing.T) {
	dev := NewU200()
	b := NewBoard(dev)
	if _, err := b.ReadFrame(0, 0); err == nil {
		t.Error("read on unconfigured board accepted")
	}
	if err := b.Configure(testImage(t, dev)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadFrame(7, 0); err == nil {
		t.Error("bad SLR accepted")
	}
	if _, err := b.ReadFrame(0, dev.SLRs[0].Frames); err == nil {
		t.Error("bad frame accepted")
	}
	if err := b.WriteFrame(0, 3, make([]uint32, 2)); err == nil {
		t.Error("short frame accepted")
	}
}

func TestGSRResetsToInit(t *testing.T) {
	dev := NewU200()
	b := NewBoard(dev)
	if err := b.Configure(testImage(t, dev)); err != nil {
		t.Fatal(err)
	}
	b.Sim.Poke("en", 1)
	b.StartClock()
	b.Advance(20)
	b.ApplyGSR()
	if v, _ := b.Sim.Peek("cnt"); v != 5 {
		t.Errorf("cnt = %d after GSR, want init 5", v)
	}
}

func TestGSRMaskRestrictsResetAndTrapsReadback(t *testing.T) {
	dev := NewU200()
	b := NewBoard(dev)
	if err := b.Configure(testImage(t, dev)); err != nil {
		t.Fatal(err)
	}
	b.Sim.Poke("en", 1)
	b.StartClock()
	b.Advance(20) // cnt = 25
	b.StopClock()

	// Mask a region on SLR2 that does NOT include cnt's frame on SLR0.
	region := Region{Name: "dyn", SLR: 2, Row: 0, Col: 0, Rows: 1, Cols: 125}
	b.SetGSRMask(&region)
	b.ApplyGSR()
	if v, _ := b.Sim.Peek("cnt"); v != 25 {
		t.Errorf("masked GSR reset cnt to %d; it lies outside the mask", v)
	}

	// The trap: while the mask is set, reading cnt's frame returns zeros.
	data, err := b.ReadFrame(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := GetBits(data, 16, 8); got != 0 {
		t.Errorf("masked readback returned live data %d; hardware would not", got)
	}
	if !b.GSRMasked() {
		t.Error("GSRMasked() = false with mask set")
	}

	// Zoomie's fix: clear the mask before readback (§4.7).
	b.SetGSRMask(nil)
	data, err = b.ReadFrame(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := GetBits(data, 16, 8); got != 25 {
		t.Errorf("readback after clearing mask = %d, want 25", got)
	}
}

func TestPutGetBitsRoundTrip(t *testing.T) {
	frame := make([]uint32, FrameWords)
	PutBits(frame, 37, 13, 0x1abc&0x1fff)
	if got := GetBits(frame, 37, 13); got != 0x1abc&0x1fff {
		t.Errorf("roundtrip = %#x", got)
	}
	// Writing zero clears previously set bits.
	PutBits(frame, 37, 13, 0)
	if got := GetBits(frame, 37, 13); got != 0 {
		t.Errorf("clear failed: %#x", got)
	}
}
