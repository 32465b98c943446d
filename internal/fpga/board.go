package fpga

import (
	"fmt"

	"zoomie/internal/rtl"
	"zoomie/internal/sim"
)

// Image is everything the toolchain hands to the board: the elaborated
// design, its clocking, the state-to-frame map, resource accounting, and
// the reserved partition regions. It plays the role of the bitstream plus
// the logic-location metadata files of a vendor flow.
type Image struct {
	Design *rtl.Flat
	Clocks []sim.ClockSpec
	Map    *StateMap
	Device *Device

	Usage   ResourceVec
	Regions []Region // reserved reconfigurable regions (VTI partitions)

	// Gates maps a clock-domain name to the flat name of the 1-bit
	// in-design signal that gates it (the Debug Controller's clock
	// enable). Domains not listed are ungated.
	Gates map[string]string
}

// Board is a configured FPGA card: the device, the loaded image, and the
// running design state. All state access from the host side goes through
// frame reads and writes, as it does over JTAG on hardware.
type Board struct {
	Device *Device
	Image  *Image
	Sim    *sim.Simulator

	// regSlot[i] is the simulator slot of the image's Map.Regs[i], and
	// memID[j] the simulator id of its Map.Mems[j].
	regSlot []int32
	memID   []int32

	// Scratch for WriteFrame's batch.
	wregs []sim.RegDelta
	wmems []sim.MemDelta

	clockRunning bool
	gsrMask      *Region // non-nil: GSR and readback restricted to region
	gen          uint64  // state generation; see Generation
}

// NewBoard creates an unconfigured board.
func NewBoard(dev *Device) *Board { return &Board{Device: dev} }

// Configure performs full configuration: it instantiates the design,
// applies GSR (all registers to their init values) and leaves the clock
// stopped, which is the state a device is in right before the "start the
// clock and raise GSR" step of the configuration flow (§4.1).
func (b *Board) Configure(img *Image) error {
	if img.Device != nil && img.Device.Name != b.Device.Name {
		return fmt.Errorf("fpga: image built for %s, board is %s", img.Device.Name, b.Device.Name)
	}
	s, err := sim.New(img.Design, img.Clocks)
	if err != nil {
		return fmt.Errorf("fpga: configure: %w", err)
	}
	for domain, gate := range img.Gates {
		if err := s.GateClock(domain, gate); err != nil {
			return fmt.Errorf("fpga: configure: %w", err)
		}
	}
	b.Image = img
	b.Sim = s
	b.clockRunning = false
	b.gsrMask = nil
	b.gen++
	if err := b.resolveState(); err != nil {
		return err
	}
	// Clock stopped until started by the configuration sequence.
	for _, c := range img.Clocks {
		s.SetHostGate(c.Name, false)
	}
	return nil
}

// resolveState resolves every register and memory of the state map to
// its simulator slot or memory once, so frame reads and writes, walking
// the map's per-frame index, look nothing up by name.
func (b *Board) resolveState() error {
	sm := b.Image.Map
	b.regSlot = make([]int32, len(sm.Regs))
	for i, r := range sm.Regs {
		if r.Addr.SLR < 0 || r.Addr.SLR >= len(b.Device.SLRs) {
			return fmt.Errorf("fpga: register %q placed on missing SLR %d", r.Name, r.Addr.SLR)
		}
		if r.Addr.Frame >= b.Device.SLRs[r.Addr.SLR].Frames {
			return fmt.Errorf("fpga: register %q placed beyond frame space", r.Name)
		}
		slot, err := b.Sim.SlotOf(r.Name)
		if err != nil {
			return fmt.Errorf("fpga: configure: %w", err)
		}
		b.regSlot[i] = slot
	}
	simMems := b.Sim.StateMems()
	b.memID = make([]int32, len(sm.Mems))
	for j, m := range sm.Mems {
		id, err := b.Sim.MemOf(m.Name)
		if err != nil {
			return fmt.Errorf("fpga: configure: %w", err)
		}
		if depth := simMems[id].Depth; depth != m.Depth {
			return fmt.Errorf("fpga: memory %q placed with %d words, design has %d", m.Name, m.Depth, depth)
		}
		b.memID[j] = id
	}
	return nil
}

// Generation counts the changes to what a frame read would return: every
// clock advance, configuration, GSR pulse, GSR-mask change and frame
// write moves it. A host that remembers frame contents may trust them
// only while the generation stands still.
func (b *Board) Generation() uint64 { return b.gen }

// Configured reports whether an image is loaded.
func (b *Board) Configured() bool { return b.Image != nil }

// StartClock begins free-running execution (models the special-register
// write that starts the clock after configuration).
func (b *Board) StartClock() {
	if b.Sim == nil {
		return
	}
	b.clockRunning = true
	for _, c := range b.Image.Clocks {
		b.Sim.SetHostGate(c.Name, true)
	}
}

// StopClock halts all clock domains from the host side.
func (b *Board) StopClock() {
	if b.Sim == nil {
		return
	}
	b.clockRunning = false
	for _, c := range b.Image.Clocks {
		b.Sim.SetHostGate(c.Name, false)
	}
}

// ClockRunning reports whether the global clock is started.
func (b *Board) ClockRunning() bool { return b.clockRunning }

// Advance models wall-clock time passing while the FPGA runs freely: the
// design executes n ticks (domains that are gated, by the host or by the
// in-design Debug Controller, hold still exactly as on hardware).
func (b *Board) Advance(n int) {
	if b.Sim == nil {
		return
	}
	if n > 0 {
		b.gen++
	}
	b.Sim.Run(n)
}

// SetGSRMask restricts GSR (and, until cleared, readback) to a region, as
// partial reconfiguration does. Pass nil to clear the mask. Hardware does
// not restore this register automatically after partial reconfiguration —
// Zoomie must clear it before readback (§4.7), and this model preserves
// that trap: masked readback returns zeroed frames outside the region.
func (b *Board) SetGSRMask(r *Region) {
	if r != nil || b.gsrMask != nil {
		b.gen++
	}
	b.gsrMask = r
}

// GSRMasked reports whether a GSR mask is currently set.
func (b *Board) GSRMasked() bool { return b.gsrMask != nil }

// ApplyGSR pulses the global set-reset: registers return to their init
// values. With a mask set, only state in frames of the masked region
// resets.
func (b *Board) ApplyGSR() {
	if b.Sim == nil {
		return
	}
	b.gen++
	var lo, hi int
	if b.gsrMask != nil {
		lo, hi = b.gsrMask.FrameRange(b.Device)
	}
	regs := b.wregs[:0]
	for _, r := range b.Image.Design.Registers {
		if b.gsrMask != nil {
			loc, ok := b.Image.Map.Reg(r.Sig.Name)
			if !ok || loc.Addr.SLR != b.gsrMask.SLR || loc.Addr.Frame < lo || loc.Addr.Frame >= hi {
				continue
			}
		}
		slot, err := b.Sim.SlotOf(r.Sig.Name)
		if err != nil {
			panic(fmt.Sprintf("fpga: GSR: %v", err))
		}
		regs = append(regs, sim.RegDelta{Slot: slot, Val: r.Init})
	}
	b.wregs = regs
	b.Sim.WriteState(regs, nil)
}

// ReadFrame serializes one configuration frame of one SLR from the live
// design state. While a GSR mask is active, frames outside the masked
// region read back as zeros — the hardware trap that forces Zoomie to
// clear the mask first.
func (b *Board) ReadFrame(slr, frame int) ([]uint32, error) {
	if b.Sim == nil {
		return nil, fmt.Errorf("fpga: board not configured")
	}
	if slr < 0 || slr >= len(b.Device.SLRs) {
		return nil, fmt.Errorf("fpga: no SLR %d", slr)
	}
	if frame < 0 || frame >= b.Device.SLRs[slr].Frames {
		return nil, fmt.Errorf("fpga: SLR %d has no frame %d", slr, frame)
	}
	data := make([]uint32, FrameWords)
	if b.gsrMask != nil {
		lo, hi := b.gsrMask.FrameRange(b.Device)
		if slr != b.gsrMask.SLR || frame < lo || frame >= hi {
			return data, nil // masked: reads as zeros
		}
	}
	sm := b.Image.Map
	for _, it := range sm.FrameItems(slr, frame) {
		if !it.Mem {
			r := &sm.Regs[it.Index]
			PutBits(data, r.Addr.Bit, r.Width, b.Sim.SlotValue(b.regSlot[it.Index]))
			continue
		}
		m, id := &sm.Mems[it.Index], b.memID[it.Index]
		w0, w1 := m.FrameWords(frame)
		for w := w0; w < w1; w++ {
			PutBits(data, (w-w0)*m.Width, m.Width, b.Sim.MemWord(id, w))
		}
	}
	return data, nil
}

// WriteFrame deserializes one configuration frame into the design state;
// this is the partial-reconfiguration write path used both for resuming
// from snapshots and for mutating state. The whole frame lands in one
// simulator host write, which settles the design once.
func (b *Board) WriteFrame(slr, frame int, data []uint32) error {
	if b.Sim == nil {
		return fmt.Errorf("fpga: board not configured")
	}
	if len(data) != FrameWords {
		return fmt.Errorf("fpga: frame write of %d words, want %d", len(data), FrameWords)
	}
	if slr < 0 || slr >= len(b.Device.SLRs) {
		return fmt.Errorf("fpga: no SLR %d", slr)
	}
	if frame < 0 || frame >= b.Device.SLRs[slr].Frames {
		return fmt.Errorf("fpga: SLR %d has no frame %d", slr, frame)
	}
	b.gen++
	regs, mems := b.wregs[:0], b.wmems[:0]
	sm := b.Image.Map
	for _, it := range sm.FrameItems(slr, frame) {
		if !it.Mem {
			r := &sm.Regs[it.Index]
			regs = append(regs, sim.RegDelta{Slot: b.regSlot[it.Index], Val: GetBits(data, r.Addr.Bit, r.Width)})
			continue
		}
		m, id := &sm.Mems[it.Index], b.memID[it.Index]
		w0, w1 := m.FrameWords(frame)
		for w := w0; w < w1; w++ {
			v := GetBits(data, (w-w0)*m.Width, m.Width)
			mems = append(mems, sim.MemDelta{Mem: id, Addr: int32(w), Val: v})
		}
	}
	b.wregs, b.wmems = regs, mems
	b.Sim.WriteState(regs, mems)
	return nil
}
