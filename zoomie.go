// Package zoomie is a software-like debugging platform for FPGAs,
// reproducing the system described in "Zoomie: A Software-like Debugging
// Tool for FPGAs" (ASPLOS 2024) on a fully simulated Xilinx-style
// multi-chiplet FPGA substrate.
//
// The platform has three pillars:
//
//   - The Debug Controller: generated RTL wrapped around a design that
//     provides timing-precise pause/resume via clock gating, value/cycle/
//     assertion breakpoints composed through Algorithm 1, formally
//     characterized pause buffers for ready-valid interfaces, and full
//     state readback/manipulation through configuration frames.
//
//   - Assertion Synthesis: a compiler from the practical SystemVerilog
//     Assertion subset of the paper's Table 4 to hardware monitor FSMs
//     that raise breakpoints on violation.
//
//   - VTI (Vendor Tool Incrementalizer): partition-based incremental
//     compilation with over-provisioned reconfigurable regions, giving
//     ~18x faster RTL-change-to-bitstream turnaround than the monolithic
//     vendor flow.
//
// Designs are written in a small RTL IR (see NewModule/NewDesign and the
// expression constructors), compiled onto a modeled Alveo U200/U250, and
// debugged through a gdb-flavoured API (see Debug and Session).
//
// The quickest start:
//
//	design := zoomie.NewDesign("counter", buildCounter())
//	sess, err := zoomie.Debug(design, zoomie.DebugConfig{
//	    Watches:    []string{"q"},
//	    Assertions: []string{"assert property (@(posedge clk) q != 16'hFFFF);"},
//	})
//	sess.SetValueBreakpoint("q", 1000, zoomie.BreakAny)
//	sess.RunUntilPaused(1 << 20)
//	v, _ := sess.Peek("cnt") // full visibility, no recompilation
package zoomie

import (
	"fmt"

	"zoomie/internal/core"
	"zoomie/internal/dberr"
	"zoomie/internal/dbg"
	"zoomie/internal/faults"
	"zoomie/internal/formal"
	"zoomie/internal/fpga"
	"zoomie/internal/hdl"
	"zoomie/internal/history"
	"zoomie/internal/ila"
	"zoomie/internal/jtag"
	"zoomie/internal/place"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
	"zoomie/internal/sva"
	"zoomie/internal/toolchain"
	"zoomie/internal/vti"
)

// RTL IR surface: designs are built from modules, signals and expressions.
type (
	// Module is a hierarchical design unit under construction.
	Module = rtl.Module
	// Design is a named module hierarchy with a top.
	Design = rtl.Design
	// Signal is a named wire, port or register within a module.
	Signal = rtl.Signal
	// Expr is a combinational expression tree.
	Expr = rtl.Expr
)

// NewModule creates an empty RTL module.
func NewModule(name string) *Module { return rtl.NewModule(name) }

// NewDesign wraps a top module into a design.
func NewDesign(name string, top *Module) *Design { return rtl.NewDesign(name, top) }

// Expression constructors, re-exported from the IR.
var (
	C          = rtl.C
	S          = rtl.S
	Not        = rtl.Not
	And        = rtl.And
	Or         = rtl.Or
	Xor        = rtl.Xor
	Add        = rtl.Add
	Sub        = rtl.Sub
	Mul        = rtl.Mul
	Eq         = rtl.Eq
	Ne         = rtl.Ne
	Lt         = rtl.Lt
	Le         = rtl.Le
	Shl        = rtl.Shl
	Shr        = rtl.Shr
	Mux        = rtl.Mux
	Slice      = rtl.Slice
	Bit        = rtl.Bit
	Concat     = rtl.Concat
	RedOr      = rtl.RedOr
	RedAnd     = rtl.RedAnd
	ZeroExt    = rtl.ZeroExt
	MemRead    = rtl.MemRead
	LogicalAnd = rtl.LogicalAnd
	LogicalOr  = rtl.LogicalOr
	LogicalNot = rtl.LogicalNot
)

// Device models.
var (
	// NewU200 builds the three-SLR Alveo U200 model.
	NewU200 = fpga.NewU200
	// NewU250 builds the four-SLR Alveo U250 model.
	NewU250 = fpga.NewU250
)

type (
	// Device is a modeled FPGA device (SLRs, tiles, frames).
	Device = fpga.Device
	// Board is a modeled FPGA card a compiled image is loaded onto.
	Board = fpga.Board
)

// NewBoard creates an unconfigured board for a device.
func NewBoard(dev *Device) *Board { return fpga.NewBoard(dev) }

// Compilation surface.
type (
	// CompileOptions configures a compile flow.
	CompileOptions = toolchain.Options
	// CompileResult is a finished compile with its report and image.
	CompileResult = toolchain.Result
	// PartitionSpec declares a VTI partition.
	PartitionSpec = place.PartitionSpec
	// VTIResult is a VTI compile, recompilable per partition.
	VTIResult = vti.Result
	// ClockSpec declares a clock domain (period/phase in ticks).
	ClockSpec = sim.ClockSpec
)

// Compile runs the monolithic (vendor-style) flow.
func Compile(d *Design, opts CompileOptions) (*CompileResult, error) {
	return toolchain.Compile(d, opts)
}

// CompileIncremental models the vendor's incremental mode.
func CompileIncremental(prev *CompileResult, d *Design, opts CompileOptions) (*CompileResult, error) {
	return toolchain.CompileIncremental(prev, d, opts)
}

// CompileVTI runs the initial VTI flow; opts.Partitions must be set.
func CompileVTI(d *Design, opts CompileOptions) (*VTIResult, error) {
	return vti.Compile(d, opts)
}

// Debugging surface.
type (
	// Debugger is the host-side gdb-like controller.
	Debugger = dbg.Debugger
	// DebugSnapshot is a captured copy of design state.
	DebugSnapshot = dbg.Snapshot
	// InstrumentConfig configures the Debug Controller wrapper directly;
	// most users want Debug/DebugConfig instead.
	InstrumentConfig = core.Config
	// InstrumentMeta is the host-facing instrumentation metadata.
	InstrumentMeta = core.Meta
	// BreakMode selects And- vs Or-composition of value breakpoints.
	BreakMode = dbg.BreakMode
	// PlanItem names one state element in a batched peek/poke — see
	// Debugger.PeekBatch/PokeBatch.
	PlanItem = dbg.PlanItem
	// PartialBatchError reports a batch that completed on some SLRs but
	// failed on others; errors.Is(err, ErrPartialBatch) matches it.
	PartialBatchError = dbg.PartialBatchError
)

// Typed debugger errors, re-exported from internal/dberr. These survive
// the zoomied wire protocol: errors.Is gives the same answer against a
// remote client.Session as against a local Debugger.
var (
	// ErrUnknownState: the named element is not a state element.
	ErrUnknownState = dberr.ErrUnknownState
	// ErrIsMemory: Peek/Poke used on a memory (use PeekMem/PokeMem).
	ErrIsMemory = dberr.ErrIsMemory
	// ErrIsRegister: PeekMem/PokeMem used on a register (use Peek/Poke).
	ErrIsRegister = dberr.ErrIsRegister
	// ErrOutOfRange: memory address beyond the declared depth.
	ErrOutOfRange = dberr.ErrOutOfRange
	// ErrNotWatched: value breakpoint on a signal not in Watches.
	ErrNotWatched = dberr.ErrNotWatched
	// ErrWidthMismatch: poked value wider than the element.
	ErrWidthMismatch = dberr.ErrWidthMismatch
	// ErrPartialBatch: a batch failed on a strict subset of its SLRs.
	ErrPartialBatch = dberr.ErrPartialBatch
)

// Breakpoint composition modes.
const (
	// BreakAll pauses when all armed BreakAll conditions match at once.
	BreakAll = dbg.BreakAll
	// BreakAny pauses when any armed BreakAny condition matches.
	BreakAny = dbg.BreakAny
)

// DebugClock is the never-gated clock domain of the Debug Controller.
const DebugClock = core.DebugClock

// Instrument wraps a design with the Debug Controller explicitly. Most
// users want Debug, which also compiles and launches.
func Instrument(d *Design, cfg InstrumentConfig) (*Design, *InstrumentMeta, error) {
	return core.Instrument(d, cfg)
}

// PauseBuffer generates the §3.1 pause-safe skid buffer for a ready/valid
// channel of the given data width, clocked by the (never-gated) clock.
func PauseBuffer(name string, width int, clock string) *Module {
	return core.PauseBuffer(name, width, clock)
}

// SVA surface.
type (
	// Assertion is a parsed SystemVerilog assertion.
	Assertion = sva.Assertion
	// AssertionMonitor is a synthesized hardware checker.
	AssertionMonitor = sva.Monitor
	// UnsupportedSVAError reports use of a feature outside Table 4.
	UnsupportedSVAError = sva.UnsupportedError
)

// ParseSVA parses one SystemVerilog assertion statement.
func ParseSVA(src string) (*Assertion, error) { return sva.Parse(src) }

// CompileSVA synthesizes an assertion into a monitor module clocked by
// the given domain; widths gives referenced signal widths.
func CompileSVA(a *Assertion, name, clock string, widths map[string]int) (*AssertionMonitor, error) {
	return sva.Compile(a, name, clock, widths)
}

// DebugConfig configures the one-call Debug entry point.
type DebugConfig struct {
	// Watches lists user-top output ports to expose as value-breakpoint
	// inputs.
	Watches []string
	// Assertions are SVA sources compiled into assertion breakpoints;
	// they may reference any output port of the user top by name.
	Assertions []string
	// UserClock is the clock domain to gate (default "clk").
	UserClock string
	// PauseInputs lists 1-bit input ports of the design to drive with the
	// controller's paused indication (see InstrumentConfig.PauseInputs).
	PauseInputs []string
	// ExtraClocks lists additional free-running clock domains of the
	// design (the user clock and the debug clock are always included).
	ExtraClocks []ClockSpec
	// Compile options (device, partitions, target frequency) — Clocks
	// and Gates are filled in automatically.
	Compile CompileOptions
	// LeaseBoard, when set, supplies the board the compiled image is
	// loaded onto — the hook the zoomied board pool uses to lease a
	// modeled card to a session. The callback receives the device the
	// compile targeted. When nil a fresh private board is created.
	LeaseBoard func(dev *Device) (*Board, error)
	// Faults, when set, interposes a seeded fault injector between the
	// JTAG cable and the board and enables the resilient transport
	// (retry, verified reads, CRC verify-after-write). Nil costs nothing.
	Faults *FaultInjector
	// History tunes (or disables) time-travel recording; nil means
	// recording on with defaults. See HistoryConfig.
	History *HistoryConfig
}

// Fault injection and transport resilience surface.
type (
	// FaultProfile configures the seeded fault models (bit flips, drops,
	// duplicates, transient errors, latency spikes, wedges).
	FaultProfile = faults.Profile
	// FaultInjector applies one FaultProfile to one board's
	// configuration plane.
	FaultInjector = faults.Injector
	// FaultStats counts the faults an injector actually fired.
	FaultStats = faults.Stats
	// CableStats counts the resilient transport's recovery work
	// (retries, re-reads, rewrites, verification failures).
	CableStats = jtag.CableStats
)

// NewFaultInjector creates an injector for a profile; pass it via
// DebugConfig.Faults (or server Config.Chaos) to debug through a flaky
// link.
func NewFaultInjector(p FaultProfile) *FaultInjector { return faults.New(p) }

// ParseFaultProfile reads the -chaos key=value syntax, e.g.
// "flip=0.01,drop=0.005,exec=0.002,seed=42".
func ParseFaultProfile(s string) (FaultProfile, error) { return faults.ParseProfile(s) }

// Session is a live debugging session: a compiled, instrumented design
// running on a board with a debugger attached and the clock started.
type Session struct {
	*Debugger
	Meta   *InstrumentMeta
	Result *CompileResult

	hist     *history.Engine
	hl       *histLayout // see bindHistory
	closed   bool
	cleanups []func() error
}

// Debug instruments a design, compiles it, configures a board and
// attaches the debugger — the five-line path from RTL to interactive
// debugging.
func Debug(d *Design, cfg DebugConfig) (*Session, error) {
	if cfg.UserClock == "" {
		cfg.UserClock = "clk"
	}
	icfg := InstrumentConfig{
		Watches:     cfg.Watches,
		UserClock:   cfg.UserClock,
		PauseInputs: cfg.PauseInputs,
	}

	// Compile assertions against the user top's output ports.
	widths := make(map[string]int)
	_, outs := d.Top.Ports()
	for _, o := range outs {
		widths[o.Name] = o.Width
	}
	widths[cfg.UserClock] = 1
	for i, src := range cfg.Assertions {
		a, err := ParseSVA(src)
		if err != nil {
			return nil, fmt.Errorf("zoomie: assertion %d: %w", i, err)
		}
		name := a.Label
		if name == "" {
			name = fmt.Sprintf("assertion%d", i)
		}
		mon, err := CompileSVA(a, name, cfg.UserClock, widths)
		if err != nil {
			return nil, fmt.Errorf("zoomie: assertion %d: %w", i, err)
		}
		bindings := make(map[string]string, len(mon.Inputs))
		for _, in := range mon.Inputs {
			bindings[in] = in
		}
		icfg.Monitors = append(icfg.Monitors, core.MonitorSpec{
			Name: name, Module: mon.Module, Bindings: bindings,
		})
	}

	wrapped, meta, err := core.Instrument(d, icfg)
	if err != nil {
		return nil, err
	}

	opts := cfg.Compile
	opts.Clocks = append([]ClockSpec{
		{Name: cfg.UserClock, Period: 1},
		{Name: DebugClock, Period: 1},
	}, cfg.ExtraClocks...)
	opts.Gates = meta.Gates()
	res, err := toolchain.Compile(wrapped, opts)
	if err != nil {
		return nil, err
	}

	var board *fpga.Board
	if cfg.LeaseBoard != nil {
		board, err = cfg.LeaseBoard(res.Options.Device)
		if err != nil {
			return nil, err
		}
	} else {
		board = fpga.NewBoard(res.Options.Device)
	}
	debugger, err := dbg.AttachWithOptions(board, res.Image, meta,
		jtag.Options{Faults: cfg.Faults})
	if err != nil {
		return nil, err
	}
	if err := debugger.Start(); err != nil {
		return nil, err
	}
	sess := &Session{Debugger: debugger, Meta: meta, Result: res}
	if err := sess.attachHistory(cfg.History); err != nil {
		return nil, err
	}
	return sess, nil
}

// PokeInput drives a top-level input port of the design under debug (a
// chip IO, modelled at board level rather than through configuration
// frames). Any other signal is refused: state changes only through
// frames, where the debugger sees them (Poke).
func (s *Session) PokeInput(name string, v uint64) error {
	sim := s.Cable.Board.Sim
	if sig := sim.Lookup(name); sig != nil && sig.Kind != rtl.KindInput {
		return fmt.Errorf("zoomie: %q is not an input port; force state with poke", name)
	}
	return sim.Poke(name, v)
}

// PeekOutput samples a top-level output port of the design under debug.
func (s *Session) PeekOutput(name string) (uint64, error) {
	return s.Cable.Board.Sim.Peek(name)
}

// AtClose registers a cleanup to run when the session is closed — trace
// sinks to flush, board leases to release. Cleanups run in reverse
// registration order, exactly once.
func (s *Session) AtClose(fn func() error) {
	s.cleanups = append(s.cleanups, fn)
}

// Close ends the session: it pauses the design (quiescing any in-flight
// run), stops every clock domain from the host side, and runs the
// registered cleanups — flushing active trace sinks and, for
// server-owned sessions, releasing the board lease back to the pool.
// Close is idempotent; the first error encountered is returned but every
// cleanup always runs.
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.hist != nil {
		s.hist.Detach()
		s.hist = nil
	}
	err := s.Pause()
	s.Cable.Board.StopClock()
	for i := len(s.cleanups) - 1; i >= 0; i-- {
		if cerr := s.cleanups[i](); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.cleanups = nil
	return err
}

// Closed reports whether Close has been called.
func (s *Session) Closed() bool { return s.closed }

// Baseline and verification tooling.

// ILAConfig configures the vendor-style Integrated Logic Analyzer
// baseline (see internal/ila): compile-time-fixed probes captured into a
// BRAM window on a trigger.
type ILAConfig = ila.Config

// ILAMeta decodes uploaded ILA capture windows.
type ILAMeta = ila.Meta

// InstrumentILA wraps a design with the traditional ILA instead of the
// Debug Controller — the baseline the paper's case studies iterate with.
func InstrumentILA(d *Design, cfg ILAConfig) (*Design, *ILAMeta, error) {
	return ila.Instrument(d, cfg)
}

// FormalOptions bounds a model-checking run.
type FormalOptions = formal.Options

// FormalResult reports a bounded check, with a counterexample trace on
// violation.
type FormalResult = formal.Result

// CheckFormal exhaustively explores a small design over all input
// sequences up to a bound, verifying that its "fail" output never rises —
// the same SVA monitors that become FPGA breakpoints can be proven here
// first (verification reuse, §2.1).
func CheckFormal(d *Design, opts FormalOptions) (*FormalResult, error) {
	return formal.Check(d, opts)
}

// ParseHDL reads a design from the .zrtl text format.
func ParseHDL(src string) (*Design, error) { return hdl.Parse(src) }

// PrintHDL serializes a design to the .zrtl text format (lossless
// round-trip with ParseHDL).
func PrintHDL(d *Design) string { return hdl.Print(d) }

// StepTrace is a waveform reconstructed by single-stepping any registers
// of the design at run time (§7.7) — see Debugger.TraceSteps.
type StepTrace = sim.Waveform
