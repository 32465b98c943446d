package bitstream

import (
	"context"
	"fmt"
	"time"
)

// Backend is what the microcontroller chain configures and reads back. The
// FPGA board model implements it (see package jtag for the adapter).
type Backend interface {
	// NumSLRs returns the number of chiplets.
	NumSLRs() int
	// Primary returns the primary SLR index.
	Primary() int
	// FramesIn returns the frame count of an SLR's configuration space.
	FramesIn(slr int) int
	// FrameWords returns the words per configuration frame.
	FrameWords() int
	// WriteFrame stores one frame of configuration data.
	WriteFrame(slr, frame int, data []uint32) error
	// ReadFrame retrieves one frame of configuration data.
	ReadFrame(slr, frame int) ([]uint32, error)
	// WriteCTL applies a control-register write (clock run bit, GSR pulse).
	WriteCTL(slr int, v uint32) error
	// WriteMask applies a GSR-mask register write (0 clears).
	WriteMask(slr int, v uint32) error
	// IDCode returns the expected device ID of an SLR.
	IDCode(slr int) uint32
}

// CostModel converts configuration activity into modeled wall-clock time.
// The constants are calibrated so that a full naive scan of one 20,000-
// frame SLR costs ~33.6 s and a BOUT ring hop costs ~5 ms, reproducing the
// scale of the paper's Table 3.
type CostModel struct {
	PerFrame   time.Duration // readback or write of one frame
	PerHop     time.Duration // one BOUT ring switch
	PerCommand time.Duration // fixed overhead per register packet
}

// DefaultCostModel returns the Table-3 calibration.
func DefaultCostModel() CostModel {
	return CostModel{
		PerFrame:   1679 * time.Microsecond, // 20,000 frames -> 33.58 s
		PerHop:     5 * time.Millisecond,
		PerCommand: 40 * time.Microsecond,
	}
}

// mcState is one SLR microcontroller's register file.
type mcState struct {
	far  uint32
	cmd  uint32
	idOK bool
}

// Chain models the ring of per-SLR configuration microcontrollers behind
// a single JTAG port. Execute interprets a word stream, dispatching each
// packet to the currently selected SLR, and returns the concatenated
// readback payload.
type Chain struct {
	backend Backend
	cost    CostModel

	mcs []mcState

	target  int // currently selected SLR
	pending int // BOUT pulses not yet consumed by a packet
	padding int // NOP words seen since the last BOUT pulse

	ctx context.Context // active ExecuteCtx context; the chain is serialized by its cable

	// Elapsed accumulates modeled configuration-plane time.
	Elapsed time.Duration
	// Stats counts activity for the evaluation harness.
	Stats ChainStats
}

// ChainStats counts configuration-plane activity.
type ChainStats struct {
	FramesRead    int
	FramesWritten int
	Hops          int
	Commands      int
	Streams       int // SYNC words executed: one per command sequence
}

// NewChain builds a chain over the backend with the given cost model.
func NewChain(b Backend, cost CostModel) *Chain {
	c := &Chain{
		backend: b,
		cost:    cost,
		mcs:     make([]mcState, b.NumSLRs()),
		target:  b.Primary(),
	}
	return c
}

// ring returns the SLR reached after `hops` hops from the primary. The
// µcs form a unidirectional ring, so hop counts simply advance around it.
func (c *Chain) ring(hops int) int {
	n := c.backend.NumSLRs()
	return (c.backend.Primary() + hops) % n
}

// Execute interprets a configuration stream, returning any readback words.
func (c *Chain) Execute(stream []uint32) ([]uint32, error) {
	return c.ExecuteCtx(context.Background(), stream)
}

// ExecuteCtx interprets a configuration stream under a context. The
// context is checked between packets and between individual frames of
// multi-frame FDRI/FDRO payloads, so cancelling mid-batch abandons the
// stream within one frame's worth of work instead of finishing the whole
// coalesced read or write.
func (c *Chain) ExecuteCtx(ctx context.Context, stream []uint32) ([]uint32, error) {
	c.ctx = ctx
	defer func() { c.ctx = nil }()
	var response []uint32
	i := 0
	for i < len(stream) {
		if err := c.ctxErr(); err != nil {
			return response, err
		}
		w := stream[i]
		switch {
		case w == NopWord:
			c.padding++
			i++
			continue
		case w == SyncWord:
			// New command sequence: targeting returns to the primary.
			c.target = c.backend.Primary()
			c.pending = 0
			c.Stats.Streams++
			i++
			continue
		}
		reg, write, n, ok := DecodeHeader(w)
		if !ok {
			return response, fmt.Errorf("bitstream: word %d: unrecognized %#08x", i, w)
		}
		i++
		if write && reg == RegBOUT {
			if n != 0 {
				return response, fmt.Errorf("bitstream: word %d: BOUT writes must be empty", i-1)
			}
			// Real hardware needs settle time after the previous hop.
			if c.pending > 0 && c.padding < MinBOUTPadding {
				return response, fmt.Errorf("bitstream: word %d: insufficient padding after BOUT (µc busy)", i-1)
			}
			c.pending++
			c.padding = 0
			c.Stats.Hops++
			c.Elapsed += c.cost.PerHop
			continue
		}
		// Any non-BOUT packet latches the pending hop count as the target.
		if c.pending > 0 {
			if c.padding < MinBOUTPadding {
				return response, fmt.Errorf("bitstream: word %d: insufficient padding after BOUT (µc busy)", i-1)
			}
			c.target = c.ring(c.pending)
			c.pending = 0
		}
		c.Stats.Commands++
		c.Elapsed += c.cost.PerCommand

		if write {
			if i+n > len(stream) {
				return response, fmt.Errorf("bitstream: truncated write payload for %s", reg)
			}
			payload := stream[i : i+n]
			i += n
			if err := c.applyWrite(reg, payload); err != nil {
				return response, err
			}
			continue
		}
		out, err := c.applyRead(reg, n)
		if err != nil {
			return response, err
		}
		response = append(response, out...)
	}
	return response, nil
}

func (c *Chain) applyWrite(reg Reg, payload []uint32) error {
	mc := &c.mcs[c.target]
	switch reg {
	case RegFAR:
		if len(payload) != 1 {
			return fmt.Errorf("bitstream: FAR write needs 1 word")
		}
		mc.far = payload[0]
	case RegCMD:
		if len(payload) != 1 {
			return fmt.Errorf("bitstream: CMD write needs 1 word")
		}
		mc.cmd = payload[0]
	case RegIDCODE:
		if len(payload) != 1 {
			return fmt.Errorf("bitstream: IDCODE write needs 1 word")
		}
		// Only the primary SLR verifies the device ID; secondary SLR
		// IDCODE writes are inert (§4.5, "Mutating Device ID").
		if c.target == c.backend.Primary() {
			if payload[0] != c.backend.IDCode(c.target) {
				return fmt.Errorf("bitstream: IDCODE mismatch on primary SLR: got %#x want %#x",
					payload[0], c.backend.IDCode(c.target))
			}
			mc.idOK = true
		}
	case RegFDRI:
		if mc.cmd != CmdWCFG {
			return fmt.Errorf("bitstream: FDRI write without WCFG command")
		}
		fw := c.backend.FrameWords()
		if len(payload)%fw != 0 {
			return fmt.Errorf("bitstream: FDRI payload of %d words is not whole frames", len(payload))
		}
		for off := 0; off < len(payload); off += fw {
			if err := c.ctxErr(); err != nil {
				return err
			}
			if int(mc.far) >= c.backend.FramesIn(c.target) {
				return fmt.Errorf("bitstream: FAR %d beyond SLR %d frame space", mc.far, c.target)
			}
			if err := c.backend.WriteFrame(c.target, int(mc.far), payload[off:off+fw]); err != nil {
				return err
			}
			mc.far++
			c.Stats.FramesWritten++
			c.Elapsed += c.cost.PerFrame
		}
	case RegCTL:
		if len(payload) != 1 {
			return fmt.Errorf("bitstream: CTL write needs 1 word")
		}
		return c.backend.WriteCTL(c.target, payload[0])
	case RegMASK:
		if len(payload) != 1 {
			return fmt.Errorf("bitstream: MASK write needs 1 word")
		}
		return c.backend.WriteMask(c.target, payload[0])
	case RegCRC, RegBOUT:
		// CRC ignored in the model; BOUT handled by the caller.
	default:
		return fmt.Errorf("bitstream: write to unsupported register %s", reg)
	}
	return nil
}

func (c *Chain) applyRead(reg Reg, n int) ([]uint32, error) {
	mc := &c.mcs[c.target]
	switch reg {
	case RegFDRO:
		if mc.cmd != CmdRCFG {
			return nil, fmt.Errorf("bitstream: FDRO read without RCFG command")
		}
		fw := c.backend.FrameWords()
		if n%fw != 0 {
			return nil, fmt.Errorf("bitstream: FDRO read of %d words is not whole frames", n)
		}
		var out []uint32
		for off := 0; off < n; off += fw {
			if err := c.ctxErr(); err != nil {
				return nil, err
			}
			if int(mc.far) >= c.backend.FramesIn(c.target) {
				return nil, fmt.Errorf("bitstream: FAR %d beyond SLR %d frame space", mc.far, c.target)
			}
			frame, err := c.backend.ReadFrame(c.target, int(mc.far))
			if err != nil {
				return nil, err
			}
			out = append(out, frame...)
			mc.far++
			c.Stats.FramesRead++
			c.Elapsed += c.cost.PerFrame
		}
		return out, nil
	case RegIDCODE:
		return []uint32{c.backend.IDCode(c.target)}, nil
	default:
		return nil, fmt.Errorf("bitstream: read from unsupported register %s", reg)
	}
}

// ctxErr reports the active ExecuteCtx context's cancellation, if any.
func (c *Chain) ctxErr() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// Target returns the currently selected SLR (exposed for the §4.5
// validation experiments).
func (c *Chain) Target() int { return c.target }

// ResetStats zeroes the accumulated statistics and modeled time.
func (c *Chain) ResetStats() {
	c.Stats = ChainStats{}
	c.Elapsed = 0
}
