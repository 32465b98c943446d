// Package toolchain orchestrates compilation flows over the synthesis,
// placement, routing and timing engines, and attaches a calibrated cost
// model that converts the work each flow actually performs into modeled
// wall-clock time at vendor-tool scale. Every flow runs one phase
// sequence, Run; a Flow supplies only how it synthesizes and places and
// what each phase is charged. Two flows are defined here:
//
//   - Monolithic: the baseline vendor flow — everything recompiled from
//     scratch on every run.
//   - VendorIncremental: the vendor's incremental mode — it reuses a prior
//     checkpoint but still re-synthesizes the whole design and re-places/
//     re-routes most of it, which is why the paper measures only marginal
//     gains (§5.2).
//
// Package vti defines the other two, VTI's initial compile and its
// partition recompile.
//
// The modeled time is proportional to mechanism, not hardcoded per flow:
// each phase's duration is work-units × calibrated per-unit cost, where
// work units are what the real algorithms did (cells mapped, cells placed,
// edge-tiles routed, frames generated).
package toolchain

import (
	"context"
	"fmt"
	"time"

	"zoomie/internal/fpga"
	"zoomie/internal/place"
	"zoomie/internal/route"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
	"zoomie/internal/synth"
	"zoomie/internal/timing"
)

// CostModel converts work units into modeled vendor-tool time. The
// defaults are calibrated against the paper's Figure 7 scale: a ~5400-core
// SoC compiles monolithically in about four and a half hours, while a
// single-core VTI partition recompile lands under twenty minutes.
type CostModel struct {
	SynthPerCell   time.Duration // per netlist cell mapped
	PlacePerUnit   time.Duration // per placement work unit
	RoutePerUnit   time.Duration // per routing work unit
	TimingPerUnit  time.Duration // per timing work unit
	BitgenPerFrame time.Duration // per configuration frame emitted
	LinkPerFrame   time.Duration // per frame merged when linking partitions
	Startup        time.Duration // fixed tool startup/checkpoint overhead
}

// DefaultCostModel returns the Figure-7 calibration.
func DefaultCostModel() CostModel {
	return CostModel{
		SynthPerCell:   18 * time.Millisecond,
		PlacePerUnit:   15 * time.Millisecond,
		RoutePerUnit:   1100 * time.Microsecond,
		TimingPerUnit:  250 * time.Microsecond,
		BitgenPerFrame: 8 * time.Millisecond,
		LinkPerFrame:   8 * time.Millisecond,
		Startup:        300 * time.Second,
	}
}

// Options configures a compile.
type Options struct {
	Device     *fpga.Device
	Partitions []place.PartitionSpec
	TargetMHz  float64

	// Clocks and Gates describe the design's clocking for image
	// construction (see fpga.Image).
	Clocks []sim.ClockSpec
	Gates  map[string]string

	// SkipImage skips elaborating the design into a runnable image; used
	// for compile-time experiments at scales no one intends to execute.
	SkipImage bool

	// Inject, when non-nil, arms seeded fault hooks inside the passes —
	// the toolchain self-checker's mutation seam. Production compiles
	// leave it nil.
	Inject *Inject

	Cost  CostModel
	Delay timing.DelayModel
}

// WithDefaults returns the options with unset fields filled in — the
// same normalization every compile entry point applies. Exported so
// flows built on the primitives here (package vti, the compile farm)
// normalize identically.
func (o Options) WithDefaults() Options {
	o.defaults()
	return o
}

func (o *Options) defaults() {
	if o.Device == nil {
		o.Device = fpga.NewU200()
	}
	if o.TargetMHz == 0 {
		o.TargetMHz = 50
	}
	if o.Cost == (CostModel{}) {
		o.Cost = DefaultCostModel()
	}
	if o.Delay == (timing.DelayModel{}) {
		o.Delay = timing.DefaultDelayModel()
	}
	if len(o.Clocks) == 0 {
		o.Clocks = []sim.ClockSpec{{Name: "clk", Period: 1}}
	}
}

// Report summarizes one compile run: modeled phase times plus the raw work
// counts that produced them.
type Report struct {
	Flow string

	Synth  time.Duration
	Place  time.Duration
	Route  time.Duration
	Timing time.Duration
	Bitgen time.Duration
	Link   time.Duration
	Start  time.Duration

	CellsSynthesized int
	CellsPlaced      int64
	RouteUnits       int64
	FramesEmitted    int

	TimingMetTarget bool
	FmaxMHz         float64
}

// Total returns the modeled end-to-end compile time.
func (r Report) Total() time.Duration {
	return r.Synth + r.Place + r.Route + r.Timing + r.Bitgen + r.Link + r.Start
}

func (r Report) String() string {
	return fmt.Sprintf("%s: total %s (synth %s, place %s, route %s, timing %s, bitgen %s, link %s, startup %s) fmax %.1f MHz",
		r.Flow, r.Total().Round(time.Second), r.Synth.Round(time.Second), r.Place.Round(time.Second),
		r.Route.Round(time.Second), r.Timing.Round(time.Second), r.Bitgen.Round(time.Second),
		r.Link.Round(time.Second), r.Start.Round(time.Second), r.FmaxMHz)
}

// Result is a completed compile.
type Result struct {
	Design    *rtl.Design
	Netlist   *synth.ModuleNetlist
	Placement *place.Placement
	Routing   *route.Result
	Timing    *timing.Analysis
	Image     *fpga.Image
	Options   Options
	Report    Report
}

// Compile runs the monolithic vendor flow: full synthesis of the flattened
// design, whole-device placement, routing, timing and full bitstream
// generation.
func Compile(d *rtl.Design, opts Options) (*Result, error) {
	return CompileCtx(context.Background(), d, opts)
}

// CompileCtx is Compile with cancellation: the context is checked before
// every phase, so a cancelled compile stops at the next phase boundary
// without doing further work.
func CompileCtx(ctx context.Context, d *rtl.Design, opts Options) (*Result, error) {
	opts.defaults()
	return Run(ctx, d, opts, Flow{Name: "monolithic", Synth: flattened(d, opts)})
}

// The vendor's incremental mode skips this much of the placement and
// routing work of a full compile.
const (
	vendorPlaceSkip = 0.25
	vendorRouteSkip = 0.10
)

// CompileIncremental models the vendor's incremental mode given a previous
// run: synthesis is repeated in full (the vendor tool cannot trust the old
// netlist after RTL edits), and the checkpoint lets placement and routing
// skip roughly a quarter and a tenth of their work respectively — the
// small, design-dependent reuse the paper observed.
func CompileIncremental(prev *Result, d *rtl.Design, opts Options) (*Result, error) {
	if prev == nil {
		return nil, fmt.Errorf("toolchain: incremental compile needs a previous result")
	}
	opts.defaults()
	return Run(context.Background(), d, opts, Flow{
		Name:  "vendor-incremental",
		Synth: flattened(d, opts),
		Place: func(net *synth.ModuleNetlist) (*place.Placement, int64, error) {
			pl, work, err := opts.placeAll(net)
			return pl, int64(float64(work) * (1 - vendorPlaceSkip)), err
		},
		Charge: func(r *Result) (int64, int64, int) {
			routeWork, timingWork, frames := wholeDesign(r)
			return int64(float64(routeWork) * (1 - vendorRouteSkip)), timingWork, frames
		},
	})
}

// flattened synthesizes the whole design and charges every instance's
// cells: the vendor flows re-elaborate and re-optimize each instance, so
// their work scales with total, not deduplicated, cells.
func flattened(d *rtl.Design, opts Options) SynthFunc {
	return func(_ context.Context, c *synth.Cache) (*synth.ModuleNetlist, int, time.Duration, error) {
		net, err := c.Module(d.Top)
		if err != nil {
			return nil, 0, 0, err
		}
		return net, net.TotalCellCount, time.Duration(net.TotalCellCount) * opts.Cost.SynthPerCell, nil
	}
}

// The phases of a compile, in the order Run enters them. The names travel
// over the wire as compile progress frames.
const (
	PhaseSynth  = "synth"
	PhasePlace  = "place"
	PhaseRoute  = "route"
	PhaseTiming = "timing"
	PhaseBitgen = "bitgen"
	PhaseLink   = "link"
	PhaseImage  = "image"
)

// SynthFunc maps a design through the compile's own cache and returns the
// netlist with the cells and modeled time its synthesis is charged. It
// should check ctx between compilation units.
type SynthFunc func(ctx context.Context, c *synth.Cache) (net *synth.ModuleNetlist, cells int, t time.Duration, err error)

// Flow is what sets one compile flow apart: how it synthesizes and
// places, and what it is charged for each phase. Run does the rest.
type Flow struct {
	Name  string
	Synth SynthFunc
	// Place places the netlist and returns the work units charged; nil
	// places the whole device and charges all of it.
	Place func(net *synth.ModuleNetlist) (*place.Placement, int64, error)
	// Charge returns the routing and timing work units and the frames the
	// routed and timed compile is charged; nil charges the whole design.
	Charge func(r *Result) (routeUnits, timingUnits int64, frames int)
	// Link adds the link phase, which merges the full-device frame
	// directory.
	Link bool
	// Resident drops the fixed startup charge.
	Resident bool
	// Store is the checkpoint store the compile's cache maps through;
	// nil resolves as Options.CheckpointStore does.
	Store synth.Store
	// OnPhase, when non-nil, is called as each phase starts.
	OnPhase func(phase string)
}

// CheckpointStore returns the checkpoint store a compile maps through: s
// when set, else the injected store, else a fresh private one.
func (o Options) CheckpointStore(s synth.Store) synth.Store {
	switch {
	case s != nil:
		return s
	case o.Inject != nil && o.Inject.Store != nil:
		return o.Inject.Store
	}
	return synth.NewMemStore(0)
}

// Run compiles d through one flow: synth, place, route, timing and bitgen,
// then link when the flow links, then the image unless opts.SkipImage.
// Each phase is gated on ctx and announced through flow.OnPhase, and
// synthesis maps through a cache of this compile's own over the flow's
// store. opts must carry its defaults (Options.WithDefaults).
func Run(ctx context.Context, d *rtl.Design, opts Options, flow Flow) (*Result, error) {
	enter := func(phase string) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("toolchain: cancelled before %s: %w", phase, err)
		}
		if flow.OnPhase != nil {
			flow.OnPhase(phase)
		}
		return nil
	}
	res := &Result{Design: d, Options: opts}
	rep := &res.Report
	rep.Flow = flow.Name
	if !flow.Resident {
		rep.Start = opts.Cost.Startup
	}

	if err := enter(PhaseSynth); err != nil {
		return nil, err
	}
	cache := synth.NewCacheWith(opts.CheckpointStore(flow.Store))
	if opts.Inject != nil {
		cache.SetNetlistHook(opts.Inject.Synth)
	}
	net, cells, synthTime, err := flow.Synth(ctx, cache)
	if err != nil {
		return nil, fmt.Errorf("toolchain: synthesis: %w", err)
	}
	res.Netlist = net
	rep.CellsSynthesized = cells
	rep.Synth = synthTime

	if err := enter(PhasePlace); err != nil {
		return nil, err
	}
	placeFn := flow.Place
	if placeFn == nil {
		placeFn = opts.placeAll
	}
	pl, placeWork, err := placeFn(net)
	if err != nil {
		return nil, fmt.Errorf("toolchain: placement: %w", err)
	}
	res.Placement = pl
	rep.CellsPlaced = placeWork
	rep.Place = time.Duration(placeWork) * opts.Cost.PlacePerUnit

	if err := enter(PhaseRoute); err != nil {
		return nil, err
	}
	if res.Routing, err = route.Route(pl, opts.RouteHooks()...); err != nil {
		return nil, fmt.Errorf("toolchain: routing: %w", err)
	}

	if err := enter(PhaseTiming); err != nil {
		return nil, err
	}
	if res.Timing, err = timing.Analyze(pl, res.Routing, opts.Delay); err != nil {
		return nil, fmt.Errorf("toolchain: timing: %w", err)
	}
	rep.FmaxMHz = res.Timing.FmaxMHz
	rep.TimingMetTarget = res.Timing.MeetsFrequency(opts.TargetMHz)
	charge := flow.Charge
	if charge == nil {
		charge = wholeDesign
	}
	routeWork, timingWork, frames := charge(res)
	rep.RouteUnits = routeWork
	rep.Route = time.Duration(routeWork) * opts.Cost.RoutePerUnit
	rep.Timing = time.Duration(timingWork) * opts.Cost.TimingPerUnit

	if err := enter(PhaseBitgen); err != nil {
		return nil, err
	}
	rep.FramesEmitted = frames
	rep.Bitgen = time.Duration(frames) * opts.Cost.BitgenPerFrame

	if flow.Link {
		if err := enter(PhaseLink); err != nil {
			return nil, err
		}
		rep.Link = time.Duration(opts.Device.TotalFrames()) * opts.Cost.LinkPerFrame
	}

	if !opts.SkipImage {
		if err := enter(PhaseImage); err != nil {
			return nil, err
		}
		if res.Image, err = BuildImage(d, pl, opts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// placeAll places the netlist over the whole device, partitions in their
// reserved regions, and charges every placement work unit.
func (o Options) placeAll(net *synth.ModuleNetlist) (*place.Placement, int64, error) {
	pl, err := place.Place(net, o.Device, o.Partitions, o.PlaceHooks()...)
	if err != nil {
		return nil, 0, err
	}
	return pl, pl.WorkUnits, nil
}

// wholeDesign charges all of the routing and timing work and a
// full-device bitstream.
func wholeDesign(r *Result) (routeUnits, timingUnits int64, frames int) {
	return r.Routing.WorkUnits, r.Timing.WorkUnits, r.Options.Device.TotalFrames()
}

// BuildImage elaborates the design and assembles the runnable image with
// the placement's state map.
func BuildImage(d *rtl.Design, pl *place.Placement, opts Options) (*fpga.Image, error) {
	flat, err := rtl.Elaborate(d)
	if err != nil {
		return nil, fmt.Errorf("toolchain: elaboration: %w", err)
	}
	var regions []fpga.Region
	for _, spec := range opts.Partitions {
		regions = append(regions, pl.Regions[spec.Name]...)
	}
	img := &fpga.Image{
		Design:  flat,
		Clocks:  opts.Clocks,
		Map:     pl.StateMap,
		Device:  opts.Device,
		Usage:   pl.Usage[place.StaticPartition],
		Regions: regions,
		Gates:   opts.Gates,
	}
	for name, u := range pl.Usage {
		if name != place.StaticPartition {
			img.Usage.Add(u)
		}
	}
	// Sanity: every register of the elaborated design must be locatable,
	// or readback name-matching would silently miss state.
	for _, r := range flat.Registers {
		if _, ok := pl.StateMap.Reg(r.Sig.Name); !ok {
			return nil, fmt.Errorf("toolchain: register %q missing from state map", r.Sig.Name)
		}
	}
	for _, m := range flat.Memories {
		if _, ok := pl.StateMap.Mem(m.Name); !ok {
			return nil, fmt.Errorf("toolchain: memory %q missing from state map", m.Name)
		}
	}
	return img, nil
}
