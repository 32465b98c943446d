// Package faults is a deterministic, seeded fault-injection layer for the
// configuration plane. It wraps the bitstream.Backend seam between the µc
// chain and the modeled board with the failure modes real lab setups see
// on a JTAG link — per-word bit flips in frame reads and writes, dropped
// and duplicated frame writes, transient command errors, latency spikes,
// and boards that wedge permanently mid-session — all driven by one
// seeded RNG so every chaos run replays bit-for-bit.
//
// The injector sits strictly below the resilient transport (internal/jtag
// retries, CRC verify-after-write, verified double reads) and strictly
// above the board model, exactly where a flaky cable lives on hardware.
// When no injector is attached the transport uses the bare backend and
// pays nothing.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zoomie/internal/bitstream"
)

// ErrTransient marks an injected failure that a retry may outlive — the
// resilient JTAG transport retries operations wrapping it with backoff.
var ErrTransient = errors.New("faults: transient link error")

// ErrWedged marks a board that has stopped responding permanently.
// Retrying is pointless; the transport fails fast and the server
// quarantines the board.
var ErrWedged = errors.New("faults: board wedged")

// Profile configures the fault models. Rates are probabilities in [0, 1];
// the zero value injects nothing.
type Profile struct {
	// Seed drives the injector's RNG; runs with equal seeds and equal
	// operation sequences inject identical faults.
	Seed int64
	// ReadFlip is the per-word probability that a word read back from a
	// frame has one random bit flipped in flight.
	ReadFlip float64
	// WriteFlip is the per-word probability that a word written to a
	// frame is corrupted in flight before it reaches the board.
	WriteFlip float64
	// Drop is the per-frame probability that a frame write is silently
	// lost (the board never sees it).
	Drop float64
	// Dup is the per-frame probability that a frame write is applied
	// twice, as a link-level retransmission would (each application
	// rolls WriteFlip independently, so the duplicate may corrupt).
	Dup float64
	// Exec is the per-operation probability of a transient command error
	// (the op fails with ErrTransient without touching the board).
	Exec float64
	// Latency is the per-operation probability of a latency spike.
	Latency float64
	// Spike is the real-time stall one latency spike costs (default 1ms
	// when Latency > 0 and Spike is zero).
	Spike time.Duration
	// WedgeAfter wedges the board permanently after this many backend
	// operations; 0 never wedges. Wedge() forces it immediately.
	WedgeAfter int64
}

// Enabled reports whether the profile injects any fault at all.
func (p Profile) Enabled() bool {
	return p.ReadFlip > 0 || p.WriteFlip > 0 || p.Drop > 0 || p.Dup > 0 ||
		p.Exec > 0 || p.Latency > 0 || p.WedgeAfter > 0
}

// String renders the profile in ParseProfile's key=value syntax.
func (p Profile) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("readflip", p.ReadFlip)
	add("writeflip", p.WriteFlip)
	add("drop", p.Drop)
	add("dup", p.Dup)
	add("exec", p.Exec)
	add("latency", p.Latency)
	if p.Spike > 0 {
		parts = append(parts, fmt.Sprintf("spike=%s", p.Spike))
	}
	if p.WedgeAfter > 0 {
		parts = append(parts, fmt.Sprintf("wedge=%d", p.WedgeAfter))
	}
	parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	return strings.Join(parts, ",")
}

// ParseProfile reads the comma-separated key=value syntax of the -chaos
// flags, e.g. "flip=0.01,drop=0.005,exec=0.002,seed=42". Keys: flip
// (sets readflip and writeflip together), readflip, writeflip, drop,
// dup, exec, latency, spike (duration), wedge (op count), seed.
func ParseProfile(s string) (Profile, error) {
	var p Profile
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return p, fmt.Errorf("faults: %q is not key=value", kv)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		rate := func(dst ...*float64) error {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return fmt.Errorf("faults: %s=%q: want a probability in [0,1]", key, val)
			}
			for _, d := range dst {
				*d = f
			}
			return nil
		}
		var err error
		switch key {
		case "flip":
			err = rate(&p.ReadFlip, &p.WriteFlip)
		case "readflip":
			err = rate(&p.ReadFlip)
		case "writeflip":
			err = rate(&p.WriteFlip)
		case "drop":
			err = rate(&p.Drop)
		case "dup":
			err = rate(&p.Dup)
		case "exec":
			err = rate(&p.Exec)
		case "latency":
			err = rate(&p.Latency)
		case "spike":
			p.Spike, err = time.ParseDuration(val)
		case "wedge":
			p.WedgeAfter, err = strconv.ParseInt(val, 10, 64)
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			err = fmt.Errorf("faults: unknown profile key %q", key)
		}
		if err != nil {
			return p, err
		}
	}
	return p, nil
}

// Stats counts the faults an injector has actually fired, for the server
// counters and the zbench chaos tables.
type Stats struct {
	Ops         int64 `json:"ops"`
	ReadFlips   int64 `json:"read_flips"`
	WriteFlips  int64 `json:"write_flips"`
	Drops       int64 `json:"drops"`
	Dups        int64 `json:"dups"`
	ExecErrors  int64 `json:"exec_errors"`
	Spikes      int64 `json:"spikes"`
	WedgedCalls int64 `json:"wedged_calls"`
}

// Total returns the number of injected faults (excluding plain ops and
// calls refused because the board was already wedged).
func (s Stats) Total() int64 {
	return s.ReadFlips + s.WriteFlips + s.Drops + s.Dups + s.ExecErrors + s.Spikes
}

// Injector applies one Profile to one board's configuration plane. It
// implements bitstream.Backend by delegating to the wrapped backend with
// faults injected on the way through. One injector serves one cable; the
// cable serializes operations, so the RNG sequence — and therefore the
// fault pattern — is deterministic for a given command sequence.
type Injector struct {
	profile Profile
	backend bitstream.Backend

	mu         sync.Mutex // guards rng and wedgedSLRs
	rng        *rand.Rand
	wedgedSLRs map[int]bool // SLRs wedged via WedgeSLR

	ops    int64 // atomic
	wedged int32 // atomic; 1 once the board stops responding

	stats struct {
		readFlips, writeFlips, drops, dups, execErrors, spikes, wedgedCalls int64
	}
}

// New creates an injector for a profile. Bind attaches it to a backend.
func New(p Profile) *Injector {
	if p.Latency > 0 && p.Spike <= 0 {
		p.Spike = time.Millisecond
	}
	return &Injector{profile: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Profile returns the injector's configuration.
func (in *Injector) Profile() Profile { return in.profile }

// Bind wraps a backend, returning the injector as a Backend. It may be
// called once per injector.
func (in *Injector) Bind(b bitstream.Backend) bitstream.Backend {
	if in.backend != nil {
		panic("faults: injector bound twice")
	}
	in.backend = b
	return in
}

// Wedge forces the board into the permanently-stuck state immediately,
// regardless of WedgeAfter — the test hook for exercising quarantine.
func (in *Injector) Wedge() { atomic.StoreInt32(&in.wedged, 1) }

// Wedged reports whether the board has stopped responding.
func (in *Injector) Wedged() bool { return atomic.LoadInt32(&in.wedged) == 1 }

// WedgeSLR wedges one SLR's configuration microcontroller while the rest
// of the chiplet ring keeps responding — the failure mode a partial-batch
// plan must survive. Operations targeting the wedged SLR fail with
// ErrWedged; other SLRs are untouched.
func (in *Injector) WedgeSLR(slr int) {
	in.mu.Lock()
	if in.wedgedSLRs == nil {
		in.wedgedSLRs = make(map[int]bool)
	}
	in.wedgedSLRs[slr] = true
	in.mu.Unlock()
}

// slrWedged reports whether a specific SLR has been wedged via WedgeSLR.
func (in *Injector) slrWedged(slr int) bool {
	in.mu.Lock()
	w := in.wedgedSLRs[slr]
	in.mu.Unlock()
	return w
}

// slrOp combines the per-SLR wedge check with the shared per-op checks.
func (in *Injector) slrOp(slr int) error {
	if in.slrWedged(slr) {
		atomic.AddInt64(&in.stats.wedgedCalls, 1)
		return fmt.Errorf("%w (slr %d)", ErrWedged, slr)
	}
	return in.op()
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	return Stats{
		Ops:         atomic.LoadInt64(&in.ops),
		ReadFlips:   atomic.LoadInt64(&in.stats.readFlips),
		WriteFlips:  atomic.LoadInt64(&in.stats.writeFlips),
		Drops:       atomic.LoadInt64(&in.stats.drops),
		Dups:        atomic.LoadInt64(&in.stats.dups),
		ExecErrors:  atomic.LoadInt64(&in.stats.execErrors),
		Spikes:      atomic.LoadInt64(&in.stats.spikes),
		WedgedCalls: atomic.LoadInt64(&in.stats.wedgedCalls),
	}
}

// roll draws a uniform float under the RNG lock.
func (in *Injector) roll() float64 {
	in.mu.Lock()
	f := in.rng.Float64()
	in.mu.Unlock()
	return f
}

// op runs the per-operation checks shared by every backend call: wedge
// accounting, transient errors, latency spikes.
func (in *Injector) op() error {
	n := atomic.AddInt64(&in.ops, 1)
	if in.profile.WedgeAfter > 0 && n > in.profile.WedgeAfter {
		atomic.StoreInt32(&in.wedged, 1)
	}
	if in.Wedged() {
		atomic.AddInt64(&in.stats.wedgedCalls, 1)
		return ErrWedged
	}
	if in.profile.Latency > 0 && in.roll() < in.profile.Latency {
		atomic.AddInt64(&in.stats.spikes, 1)
		time.Sleep(in.profile.Spike)
	}
	if in.profile.Exec > 0 && in.roll() < in.profile.Exec {
		atomic.AddInt64(&in.stats.execErrors, 1)
		return fmt.Errorf("%w (op %d)", ErrTransient, n)
	}
	return nil
}

// corrupt flips one random bit in each word selected by rate, returning
// the number of flips. The slice is modified in place. It holds the RNG
// lock for the whole frame, drawing per word the roll and, on a flip, the
// bit index.
func (in *Injector) corrupt(data []uint32, rate float64) int64 {
	if rate <= 0 {
		return 0
	}
	var flips int64
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range data {
		if in.rng.Float64() < rate {
			data[i] ^= 1 << uint(in.rng.Intn(32))
			flips++
		}
	}
	return flips
}

// Backend passthroughs — shape queries carry no faults.

func (in *Injector) NumSLRs() int          { return in.backend.NumSLRs() }
func (in *Injector) Primary() int          { return in.backend.Primary() }
func (in *Injector) FrameWords() int       { return in.backend.FrameWords() }
func (in *Injector) FramesIn(slr int) int  { return in.backend.FramesIn(slr) }
func (in *Injector) IDCode(slr int) uint32 { return in.backend.IDCode(slr) }

// ReadFrame reads through the flaky link: the board's true frame data may
// come back with bit flips.
func (in *Injector) ReadFrame(slr, frame int) ([]uint32, error) {
	if err := in.slrOp(slr); err != nil {
		return nil, err
	}
	data, err := in.backend.ReadFrame(slr, frame)
	if err != nil {
		return nil, err
	}
	if flips := in.corrupt(data, in.profile.ReadFlip); flips > 0 {
		atomic.AddInt64(&in.stats.readFlips, flips)
	}
	return data, nil
}

// WriteFrame writes through the flaky link: the frame may be corrupted in
// flight, silently dropped, or applied twice (a retransmission, each leg
// rolling corruption independently — the later application wins).
func (in *Injector) WriteFrame(slr, frame int, data []uint32) error {
	if err := in.slrOp(slr); err != nil {
		return err
	}
	if in.profile.Drop > 0 && in.roll() < in.profile.Drop {
		atomic.AddInt64(&in.stats.drops, 1)
		return nil // the board never saw it; the caller believes it did
	}
	writeOnce := func() error {
		sent := data
		if in.profile.WriteFlip > 0 {
			sent = append([]uint32(nil), data...)
			if flips := in.corrupt(sent, in.profile.WriteFlip); flips > 0 {
				atomic.AddInt64(&in.stats.writeFlips, flips)
			}
		}
		return in.backend.WriteFrame(slr, frame, sent)
	}
	if err := writeOnce(); err != nil {
		return err
	}
	if in.profile.Dup > 0 && in.roll() < in.profile.Dup {
		atomic.AddInt64(&in.stats.dups, 1)
		return writeOnce()
	}
	return nil
}

// WriteCTL passes a control write through the per-op fault checks.
func (in *Injector) WriteCTL(slr int, v uint32) error {
	if err := in.slrOp(slr); err != nil {
		return err
	}
	return in.backend.WriteCTL(slr, v)
}

// WriteMask passes a mask write through the per-op fault checks.
func (in *Injector) WriteMask(slr int, v uint32) error {
	if err := in.slrOp(slr); err != nil {
		return err
	}
	return in.backend.WriteMask(slr, v)
}

// ProfileKeys lists the ParseProfile keys, for flag usage strings.
func ProfileKeys() string {
	keys := []string{"flip", "readflip", "writeflip", "drop", "dup", "exec", "latency", "spike", "wedge", "seed"}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
