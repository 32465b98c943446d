// Package dbg is Zoomie's host-side debugger: the software half of the
// Debug Controller. It speaks to the FPGA exclusively through
// configuration frames over the JTAG cable — reading state back, matching
// it to RTL names via the StateMap metadata (§3.2), forcing values
// (§3.3), reconfiguring breakpoints on the fly (§3.4), stepping the design
// a precise number of cycles, and capturing/restoring full snapshots with
// the SLR-aware readback optimization (§4.7).
package dbg

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"zoomie/internal/core"
	"zoomie/internal/dberr"
	"zoomie/internal/fpga"
	"zoomie/internal/jtag"
)

// DutPrefix is the instance name the instrumentation wrapper gives the
// user design; the debugger resolves bare user signal names under it.
const DutPrefix = "dut"

// Debugger drives one instrumented design on one board.
type Debugger struct {
	Cable *jtag.Cable
	Image *fpga.Image
	Meta  *core.Meta

	kf knownFrames // see known
}

// Attach configures the board with the image, connects a cable and leaves
// the design ready to start (clock stopped). The image must be built from
// a design instrumented with core.Instrument using the same Meta.
func Attach(board *fpga.Board, img *fpga.Image, meta *core.Meta) (*Debugger, error) {
	return AttachWithOptions(board, img, meta, jtag.Options{})
}

// AttachWithOptions attaches with explicit cable options — the entry
// point for fault injection and the guarded transport. With zero Options
// it is exactly Attach.
func AttachWithOptions(board *fpga.Board, img *fpga.Image, meta *core.Meta, opts jtag.Options) (*Debugger, error) {
	configured := board.Configured()
	if !configured {
		if err := board.Configure(img); err != nil {
			return nil, err
		}
	}
	d := &Debugger{Cable: jtag.ConnectWithOptions(board, opts), Image: img, Meta: meta}
	d.known().maskClear = !configured // configuration clears the GSR mask
	return d, nil
}

// HealthCheck probes the board's configuration plane (one frame readback
// on the primary SLR) without touching design state. A wedged board
// fails fast; the server's prober quarantines it.
func (d *Debugger) HealthCheck() error { return d.Cable.Probe() }

// Start executes the full configuration flow: the generated configuration
// bitstream writes every initial-state frame chunk by chunk across the
// SLR ring, then pulses GSR and starts the clock (§4.1). After Start the
// design runs freely, and the debugger knows no frame.
func (d *Debugger) Start() error {
	k := d.known()
	if err := d.Cable.Boot(d.Image); err != nil {
		return err
	}
	k.advanced()
	return nil
}

// Run lets the FPGA execute freely for n design-clock ticks of wall time.
// Paused domains hold still, exactly as on hardware. The debugger forgets
// every frame it knew: any of them may have changed.
func (d *Debugger) Run(n int) {
	k := d.known()
	d.Cable.Board.Advance(n)
	k.advanced()
}

// resolve maps a possibly-bare user signal name to its flat name.
func (d *Debugger) resolve(name string) (string, bool) {
	if _, ok := d.Image.Map.Reg(name); ok {
		return name, true
	}
	if _, ok := d.Image.Map.Mem(name); ok {
		return name, true
	}
	qualified := DutPrefix + "." + name
	if _, ok := d.Image.Map.Reg(qualified); ok {
		return qualified, true
	}
	if _, ok := d.Image.Map.Mem(qualified); ok {
		return qualified, true
	}
	return name, false
}

// Peek reads a register's value through frame readback. Bare user names
// are resolved under the "dut." instance automatically.
func (d *Debugger) Peek(name string) (uint64, error) {
	return d.PeekCtx(context.Background(), name)
}

// PeekCtx is Peek under a context: a one-element frame plan, so the
// single-signal read shares the batched data path (and its guard
// semantics) exactly.
func (d *Debugger) PeekCtx(ctx context.Context, name string) (uint64, error) {
	vals, err := d.ReadPlan(ctx, []PlanItem{{Name: name}})
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// PeekMem reads one memory word through frame readback.
func (d *Debugger) PeekMem(name string, addr int) (uint64, error) {
	return d.PeekMemCtx(context.Background(), name, addr)
}

// PeekMemCtx is PeekMem under a context.
func (d *Debugger) PeekMemCtx(ctx context.Context, name string, addr int) (uint64, error) {
	vals, err := d.ReadPlan(ctx, []PlanItem{{Name: name, Mem: true, Addr: addr}})
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// Poke forces a register value through partial reconfiguration
// (read-modify-write of its frame).
func (d *Debugger) Poke(name string, v uint64) error {
	return d.PokeCtx(context.Background(), name, v)
}

// PokeCtx is Poke under a context.
func (d *Debugger) PokeCtx(ctx context.Context, name string, v uint64) error {
	return d.WritePlan(ctx, []PlanItem{{Name: name, Value: v}})
}

// PokeMem forces one memory word.
func (d *Debugger) PokeMem(name string, addr int, v uint64) error {
	return d.PokeMemCtx(context.Background(), name, addr, v)
}

// PokeMemCtx is PokeMem under a context.
func (d *Debugger) PokeMemCtx(ctx context.Context, name string, addr int, v uint64) error {
	return d.WritePlan(ctx, []PlanItem{{Name: name, Mem: true, Addr: addr, Value: v}})
}

// ctl pokes a Debug Controller register.
func (d *Debugger) ctl(reg string, v uint64) error { return d.Poke(d.Meta.Reg(reg), v) }

// ctlBatch pokes several Debug Controller registers in one write plan —
// the controller's registers share a handful of frames, so grouped
// writes cost two cable operations instead of two per register.
func (d *Debugger) ctlBatch(regs []string, vals []uint64) error {
	items := make([]PlanItem, len(regs))
	for i, r := range regs {
		items[i] = PlanItem{Name: d.Meta.Reg(r), Value: vals[i]}
	}
	return d.WritePlan(context.Background(), items)
}

// Pause halts the MUT from the host, like hitting Ctrl-C in gdb. The
// design stops on the next clock edge.
func (d *Debugger) Pause() error {
	if err := d.ctl(core.RegPauseReq, 1); err != nil {
		return err
	}
	d.Run(1) // the controller latches the pause on its next cycle
	return nil
}

// Resume clears every pause source and lets the design run freely.
func (d *Debugger) Resume() error {
	return d.ctlBatch(
		[]string{core.RegStepArm, core.RegPauseReq, core.RegPaused},
		[]uint64{0, 0, 0})
}

// Paused reports whether the Debug Controller holds the design.
func (d *Debugger) Paused() (bool, error) {
	v, err := d.Peek(d.Meta.Reg(core.RegPaused))
	return v != 0, err
}

// Step executes exactly n MUT cycles and pauses again — gdb's stepi/until.
func (d *Debugger) Step(n int) error {
	if n <= 0 {
		return fmt.Errorf("dbg: step count must be positive")
	}
	// One planned write for the whole arming sequence: the four controller
	// registers share frames, so this is one readback + one writeback
	// instead of four of each — the difference the batch experiment
	// measures on step-heavy watchpoint sweeps.
	err := d.ctlBatch(
		[]string{core.RegStepCnt, core.RegStepArm, core.RegPauseReq, core.RegPaused},
		[]uint64{uint64(n), 1, 0, 0})
	if err != nil {
		return err
	}
	d.Run(n + 2)
	paused, err := d.Paused()
	if err != nil {
		return err
	}
	if !paused {
		return fmt.Errorf("dbg: design did not re-pause after %d-cycle step", n)
	}
	return nil
}

// Cycles returns how many MUT cycles have executed since configuration.
func (d *Debugger) Cycles() (uint64, error) {
	return d.Peek(d.Meta.Reg(core.RegCycles))
}

// BreakMode selects how a value breakpoint composes with others.
type BreakMode int

const (
	// BreakAll: the design pauses when ALL active BreakAll conditions
	// match simultaneously (the And network of Algorithm 1).
	BreakAll BreakMode = iota
	// BreakAny: the design pauses when ANY active BreakAny condition
	// matches (the Or network).
	BreakAny
)

// SetValueBreakpoint arms a value breakpoint on a watched signal, on the
// fly, without recompilation: it is pure state manipulation of the
// trigger unit.
func (d *Debugger) SetValueBreakpoint(signal string, value uint64, mode BreakMode) error {
	idx := d.Meta.WatchIndex(signal)
	if idx < 0 {
		return dberr.E(dberr.ErrNotWatched,
			"dbg: %q is not a watched signal (watches: %v)", signal, d.watchNames())
	}
	switch mode {
	case BreakAll:
		return d.ctlBatch(
			[]string{core.RegRefVal(idx), core.RegAndMask(idx), core.RegAndSel},
			[]uint64{value, 1, 1})
	case BreakAny:
		return d.ctlBatch(
			[]string{core.RegRefVal(idx), core.RegOrMask(idx), core.RegOrSel},
			[]uint64{value, 1, 1})
	default:
		return fmt.Errorf("dbg: unknown break mode %d", mode)
	}
}

// ClearBreakpoints disarms every value breakpoint in one planned write.
func (d *Debugger) ClearBreakpoints() error {
	var regs []string
	var vals []uint64
	for i := range d.Meta.Watches {
		regs = append(regs, core.RegAndMask(i), core.RegOrMask(i))
		vals = append(vals, 0, 0)
	}
	regs = append(regs, core.RegAndSel, core.RegOrSel)
	vals = append(vals, 0, 0)
	return d.ctlBatch(regs, vals)
}

// EnableAssertion turns an assertion breakpoint on or off dynamically.
func (d *Debugger) EnableAssertion(name string, enable bool) error {
	idx := d.Meta.AssertIndex(name)
	if idx < 0 {
		return fmt.Errorf("dbg: no assertion %q (have: %v)", name, d.Meta.Asserts)
	}
	v := uint64(0)
	if enable {
		v = 1
	}
	return d.ctl(core.RegAssertEn(idx), v)
}

// RunUntilPaused lets the design run until a trigger fires, polling the
// paused flag, up to maxTicks. Returns the ticks consumed.
func (d *Debugger) RunUntilPaused(maxTicks int) (int, error) {
	const chunk = 64
	ran := 0
	for ran < maxTicks {
		n := chunk
		if maxTicks-ran < n {
			n = maxTicks - ran
		}
		d.Run(n)
		ran += n
		paused, err := d.Paused()
		if err != nil {
			return ran, err
		}
		if paused {
			return ran, nil
		}
	}
	return ran, fmt.Errorf("dbg: no trigger fired within %d ticks", maxTicks)
}

func (d *Debugger) watchNames() []string {
	var out []string
	for _, w := range d.Meta.Watches {
		out = append(out, w.Signal)
	}
	return out
}

// Elapsed returns the modeled configuration-plane time spent so far.
func (d *Debugger) Elapsed() time.Duration { return d.Cable.Elapsed() }

// ResetStats clears the modeled-time accounting.
func (d *Debugger) ResetStats() { d.Cable.ResetStats() }

// Inspect returns a sorted name=value listing of all registers under the
// given instance prefix (bare user prefixes resolve under "dut.").
func (d *Debugger) Inspect(prefix string) ([]string, error) {
	snap, err := d.Snapshot(prefix)
	if err != nil {
		return nil, err
	}
	var names []string
	for n := range snap.Regs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("%s = %#x", n, snap.Regs[n])
	}
	return out, nil
}

// qualifyPrefix resolves a user instance prefix under "dut." when needed.
func (d *Debugger) qualifyPrefix(prefix string) string {
	if prefix == "" {
		return ""
	}
	for _, r := range d.Image.Map.Regs {
		if strings.HasPrefix(r.Name, prefix+".") || r.Name == prefix {
			return prefix
		}
	}
	return DutPrefix + "." + prefix
}
