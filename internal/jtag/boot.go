package jtag

import (
	"fmt"
	"sort"

	"zoomie/internal/bitstream"
	"zoomie/internal/fpga"
	"zoomie/internal/rtl"
)

// GenerateConfigStream builds the full-device configuration bitstream for
// an image: one chunk per SLR in ring order — BOUT pulses to select the
// chiplet, an IDCODE write (checked only by the primary, §4.5), WCFG and
// the frame data of all initial state — followed by the control write
// that pulses GSR and starts the clock (§4.1). The stream has exactly the
// shape the paper dissected: zero BOUT writes before the primary chunk,
// one before the first secondary, two before the second, and so on.
func GenerateConfigStream(img *fpga.Image) ([]uint32, error) {
	dev := img.Device
	if dev == nil {
		return nil, fmt.Errorf("jtag: image has no device")
	}
	frames, err := initialFrames(img)
	if err != nil {
		return nil, err
	}

	b := bitstream.NewBuilder()
	b.Nops(16) // leading dummy padding, as real streams carry
	b.Sync()
	n := len(dev.SLRs)
	for hops := 0; hops < n; hops++ {
		slr := (dev.Primary + hops) % n
		b.SelectSLR(hopsFor(hops))
		b.WriteReg(bitstream.RegIDCODE, bitstream.IDCodeFor(dev.Name, slr))
		// Write this SLR's initial-state frames in address order.
		var addrs []int
		for key := range frames {
			if key[0] == slr {
				addrs = append(addrs, key[1])
			}
		}
		sort.Ints(addrs)
		for _, far := range addrs {
			b.WriteFrames(fpga.FrameWords, far, frames[[2]int{slr, far}])
		}
	}
	// Finish: return to the primary and start the clock (raises GSR).
	b.Sync()
	b.StartClock()
	return b.Words(), nil
}

// hopsFor returns the incremental BOUT pulses needed to advance from the
// previous chunk's SLR to this one. The ring only moves forward, and each
// chunk is one hop past the previous, so after the primary every chunk is
// reached with hops pulses from a fresh selection.
func hopsFor(hops int) int { return hops }

// initialFrames composes the configuration frames holding every register
// init value and memory init word of the image.
func initialFrames(img *fpga.Image) (map[[2]int][]uint32, error) {
	frames := make(map[[2]int][]uint32)
	get := func(slr, far int) []uint32 {
		key := [2]int{slr, far}
		f, ok := frames[key]
		if !ok {
			f = make([]uint32, fpga.FrameWords)
			frames[key] = f
		}
		return f
	}
	for _, r := range img.Design.Registers {
		loc, ok := img.Map.Reg(r.Sig.Name)
		if !ok {
			return nil, fmt.Errorf("jtag: register %q missing from state map", r.Sig.Name)
		}
		put(get(loc.Addr.SLR, loc.Addr.Frame), loc.Addr.Bit, loc.Width, r.Init)
	}
	for _, m := range img.Design.Memories {
		loc, ok := img.Map.Mem(m.Name)
		if !ok {
			return nil, fmt.Errorf("jtag: memory %q missing from state map", m.Name)
		}
		for w := 0; w < m.Depth; w++ {
			v := uint64(0)
			if m.Init != nil {
				v = rtl.Truncate(m.Init[w], m.Width)
			}
			wa := loc.WordAddr(w)
			put(get(wa.SLR, wa.Frame), wa.Bit, loc.Width, v)
		}
	}
	return frames, nil
}

func put(frame []uint32, off, width int, v uint64) {
	for i := 0; i < width; i++ {
		bit := off + i
		if v>>uint(i)&1 != 0 {
			frame[bit/32] |= 1 << uint(bit%32)
		}
	}
}

// Boot performs the full configuration flow on a board: structural
// configuration (the netlist load a bitstream's LUT programming stands
// for), then execution of the generated configuration stream, which
// writes every initial-state frame chunk by chunk across the SLR ring and
// finally pulses GSR and starts the clock. After Boot the design runs.
func (c *Cable) Boot(img *fpga.Image) error {
	if !c.Board.Configured() {
		if err := c.Board.Configure(img); err != nil {
			return err
		}
	}
	if c.guard {
		return c.bootVerified(img)
	}
	stream, err := GenerateConfigStream(img)
	if err != nil {
		return err
	}
	if _, err := c.Execute(stream); err != nil {
		return fmt.Errorf("jtag: boot stream failed: %w", err)
	}
	if !c.Board.ClockRunning() {
		return fmt.Errorf("jtag: boot completed but the clock is not running")
	}
	return nil
}

// bootVerified is the guarded-transport boot: the initial-state frames
// go through the CRC verify-after-write path SLR by SLR instead of one
// long unverified stream, then the clock starts. Without this a single
// in-flight flip during configuration corrupts initial state silently —
// every later read faithfully returns the wrong image, so no amount of
// read verification can catch it. Each writeback carries at most
// maxStreamFrameOps frames: a verified transfer's first stream holds all
// of its writes, and one transient error voids the whole stream, so an
// SLR's whole image in one transfer can exhaust the retry budget.
func (c *Cable) bootVerified(img *fpga.Image) error {
	frames, err := initialFrames(img)
	if err != nil {
		return err
	}
	perSLR := map[int][]int{}
	for key := range frames {
		perSLR[key[0]] = append(perSLR[key[0]], key[1])
	}
	slrs := make([]int, 0, len(perSLR))
	for slr := range perSLR {
		slrs = append(slrs, slr)
	}
	sort.Ints(slrs)
	for _, slr := range slrs {
		addrs := perSLR[slr]
		sort.Ints(addrs)
		for len(addrs) > 0 {
			chunk := addrs[:min(len(addrs), maxStreamFrameOps)]
			addrs = addrs[len(chunk):]
			data := make([][]uint32, len(chunk))
			for i, far := range chunk {
				data[i] = frames[[2]int{slr, far}]
			}
			if err := c.WritebackFrames(slr, chunk, data); err != nil {
				return fmt.Errorf("jtag: boot frames of SLR %d: %w", slr, err)
			}
		}
	}
	if err := c.StartClock(); err != nil {
		return fmt.Errorf("jtag: boot stream failed: %w", err)
	}
	if !c.Board.ClockRunning() {
		return fmt.Errorf("jtag: boot completed but the clock is not running")
	}
	return nil
}
