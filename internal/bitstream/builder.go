package bitstream

import "fmt"

// Builder assembles configuration word streams. The zero value is ready to
// use; all methods return the builder for chaining.
type Builder struct {
	words []uint32
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// Words returns the assembled stream.
func (b *Builder) Words() []uint32 { return b.words }

// Len returns the current stream length in words.
func (b *Builder) Len() int { return len(b.words) }

// Raw appends arbitrary words (used by tests to craft malformed streams).
func (b *Builder) Raw(ws ...uint32) *Builder {
	b.words = append(b.words, ws...)
	return b
}

// Sync appends the sync word, starting a command sequence and resetting
// SLR targeting to the primary.
func (b *Builder) Sync() *Builder {
	b.words = append(b.words, SyncWord)
	return b
}

// Nops appends n dummy padding words.
func (b *Builder) Nops(n int) *Builder {
	for i := 0; i < n; i++ {
		b.words = append(b.words, NopWord)
	}
	return b
}

// WriteReg appends a register write carrying the given payload words.
func (b *Builder) WriteReg(reg Reg, payload ...uint32) *Builder {
	b.words = append(b.words, WriteHeader(reg, len(payload)))
	b.words = append(b.words, payload...)
	return b
}

// ReadReg appends a register read of n words.
func (b *Builder) ReadReg(reg Reg, n int) *Builder {
	b.words = append(b.words, ReadHeader(reg, n))
	return b
}

// SelectSLR appends the BOUT pulse sequence that directs subsequent
// operations to the SLR reached after `hops` ring hops from the primary
// (0 hops = primary, needing no pulses). Each pulse is an *empty* write to
// BOUT followed by the mandatory padding, exactly the pattern observed in
// real bitstreams (§4.4).
func (b *Builder) SelectSLR(hops int) *Builder {
	for i := 0; i < hops; i++ {
		b.WriteReg(RegBOUT)
		b.Nops(MinBOUTPadding + 8)
	}
	return b
}

// WriteFrames appends a WCFG command, the starting frame address, and an
// FDRI write carrying the frames' data, split into packets of whole
// frames where the run exceeds MaxPacketWords: the write twin of
// ReadFrames. Each frame must be exactly frameWords long; the µc
// auto-increments FAR after each frame, so the frames land at consecutive
// addresses from far.
func (b *Builder) WriteFrames(frameWords int, far int, frames ...[]uint32) *Builder {
	b.WriteReg(RegCMD, CmdWCFG)
	b.WriteReg(RegFAR, uint32(far))
	per := max(MaxPacketWords/frameWords, 1)
	for len(frames) > 0 {
		chunk := frames[:min(per, len(frames))]
		frames = frames[len(chunk):]
		b.words = append(b.words, WriteHeader(RegFDRI, len(chunk)*frameWords))
		for _, f := range chunk {
			if len(f) != frameWords {
				panic(fmt.Sprintf("bitstream: frame has %d words, want %d", len(f), frameWords))
			}
			b.words = append(b.words, f...)
		}
	}
	return b
}

// ReadFrames appends an RCFG command, the starting frame address, and an
// FDRO read covering n frames.
func (b *Builder) ReadFrames(frameWords int, far, n int) *Builder {
	b.WriteReg(RegCMD, CmdRCFG)
	b.WriteReg(RegFAR, uint32(far))
	total := n * frameWords
	for total > 0 {
		chunk := total
		if chunk > MaxPacketWords {
			chunk = (MaxPacketWords / frameWords) * frameWords
		}
		b.ReadReg(RegFDRO, chunk)
		total -= chunk
	}
	return b
}

// StartClock appends the control write that starts the clock and pulses
// GSR — the final step of the configuration flow (§4.1).
func (b *Builder) StartClock() *Builder {
	return b.WriteReg(RegCTL, CtlClockRun|CtlGSRPulse)
}

// StopClock appends the control write that halts the global clock.
func (b *Builder) StopClock() *Builder {
	return b.WriteReg(RegCTL, 0)
}

// ClearGSRMask appends the MASK write Zoomie issues before every readback,
// because partial reconfiguration leaves the mask set (§4.7).
func (b *Builder) ClearGSRMask() *Builder {
	return b.WriteReg(RegMASK, 0)
}

// SetGSRMask appends a MASK write restricting GSR to region index idx of
// the loaded image.
func (b *Builder) SetGSRMask(idx int) *Builder {
	return b.WriteReg(RegMASK, uint32(idx)+1)
}
