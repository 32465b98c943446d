package vti

import (
	"context"
	"fmt"
	"sync"
	"time"

	"zoomie/internal/place"
	"zoomie/internal/route"
	"zoomie/internal/rtl"
	"zoomie/internal/synth"
	"zoomie/internal/timing"
	"zoomie/internal/toolchain"
)

// The VTI flow is an explicit job graph: named phases executed in
// dependency order, each gated on the compile's context. Phase names are
// stable — they travel over the wire as compile progress frames.
const (
	PhaseSynth  = "synth"
	PhasePlace  = "place"
	PhaseRoute  = "route"
	PhaseTiming = "timing"
	PhaseBitgen = "bitgen"
	PhaseLink   = "link"
	PhaseImage  = "image"
)

// CompileOptions configures a cancellable compile beyond the toolchain
// options themselves.
type CompileOptions struct {
	// Cache supplies the checkpoint cache; nil means a fresh private
	// cache. Passing a cache backed by a shared synth.Store is what makes
	// one client's synthesis another client's cache hit.
	Cache *synth.Cache
	// OnPhase, when non-nil, is called as each phase starts.
	OnPhase func(phase string)
}

// RecompileOptions configures a cancellable incremental recompile.
type RecompileOptions struct {
	// Resident marks a recompile served by a daemon whose toolchain is
	// already running: the fixed startup/checkpoint-load charge is
	// dropped, the way a compile server amortizes tool startup across
	// requests. Interactive one-shot recompiles pay it as before.
	Resident bool
	// OnPhase, when non-nil, is called as each phase starts.
	OnPhase func(phase string)
}

// gate returns a cancellation error if ctx ended before the named phase.
func gate(ctx context.Context, phase string) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("vti: cancelled before %s: %w", phase, err)
	}
	return nil
}

func enter(ctx context.Context, onPhase func(string), phase string) error {
	if err := gate(ctx, phase); err != nil {
		return err
	}
	if onPhase != nil {
		onPhase(phase)
	}
	return nil
}

// CompileCtx performs the initial VTI compile as a cancellable phase
// graph. opts.Partitions must name at least one partition. Partition
// subtrees synthesize on parallel workers through the (mutex-guarded)
// checkpoint cache; modeled synthesis time is the maximum over
// compilation units, charging only modules the cache actually had to map
// — checkpoints already in the shared store are free.
func CompileCtx(ctx context.Context, d *rtl.Design, opts toolchain.Options, co CompileOptions) (*Result, error) {
	if len(opts.Partitions) == 0 {
		return nil, fmt.Errorf("vti: at least one partition is required")
	}
	opts = opts.WithDefaults()
	cache := co.Cache
	if cache == nil {
		if opts.Inject != nil && opts.Inject.Store != nil {
			cache = synth.NewCacheWith(opts.Inject.Store)
		} else {
			cache = synth.NewCache()
		}
	}
	if opts.Inject != nil && opts.Inject.Synth != nil {
		cache.SetNetlistHook(opts.Inject.Synth)
	}

	out := &toolchain.Result{Design: d, Options: opts}
	rep := &out.Report
	rep.Flow = "vti-initial"
	rep.Start = opts.Cost.Startup

	// Phase 1: synthesis. One worker per partition path plus the top-level
	// walk for the static remainder; the cache dedups shared modules.
	if err := enter(ctx, co.OnPhase, PhaseSynth); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var synthErr error
	for _, spec := range opts.Partitions {
		for _, path := range spec.Paths {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				if ctx.Err() != nil {
					return
				}
				mod, err := moduleAt(d, path)
				if err == nil {
					_, err = cache.Module(mod)
				}
				if err != nil {
					errMu.Lock()
					if synthErr == nil {
						synthErr = err
					}
					errMu.Unlock()
				}
			}(path)
		}
	}
	wg.Wait()
	if synthErr != nil {
		return nil, fmt.Errorf("vti: partition synthesis: %w", synthErr)
	}
	if err := gate(ctx, PhaseSynth); err != nil {
		return nil, err
	}
	net, err := cache.Module(d.Top)
	if err != nil {
		return nil, fmt.Errorf("vti: synthesis: %w", err)
	}
	out.Netlist = net

	// Parallel-unit accounting: modeled synthesis time is the maximum over
	// compilation units (each partition, plus the static remainder), and
	// each unit is charged only for cold cells — per-instance cells of
	// modules whose checkpoints were not already in the store.
	maxCells := 0
	partCold := 0
	for _, spec := range opts.Partitions {
		n := 0
		for _, path := range spec.Paths {
			mod, err := moduleAt(d, path)
			if err != nil {
				return nil, err
			}
			sub, err := cache.Module(mod) // memoized: no extra work
			if err != nil {
				return nil, err
			}
			n += coldCells(cache, mod, sub)
		}
		partCold += n
		if n > maxCells {
			maxCells = n
		}
	}
	staticCold := coldCells(cache, d.Top, net) - partCold
	if staticCold > maxCells {
		maxCells = staticCold
	}
	rep.CellsSynthesized = maxCells
	rep.Synth = time.Duration(maxCells) * opts.Cost.SynthPerCell
	// Design split and reset insertion: a linear pass over the design.
	rep.Synth += time.Duration(net.TotalCellCount) * opts.Cost.SynthPerCell / 20

	// Phase 2: placement over the whole device, partitions in their
	// reserved regions.
	if err := enter(ctx, co.OnPhase, PhasePlace); err != nil {
		return nil, err
	}
	pl, err := place.Place(net, opts.Device, opts.Partitions, opts.PlaceHooks()...)
	if err != nil {
		return nil, fmt.Errorf("vti: placement: %w", err)
	}
	out.Placement = pl
	rep.CellsPlaced = pl.WorkUnits
	rep.Place = time.Duration(pl.WorkUnits) * opts.Cost.PlacePerUnit

	// Phase 3: routing.
	if err := enter(ctx, co.OnPhase, PhaseRoute); err != nil {
		return nil, err
	}
	rt, err := route.Route(net, pl, opts.RouteHooks()...)
	if err != nil {
		return nil, fmt.Errorf("vti: routing: %w", err)
	}
	out.Routing = rt
	rep.RouteUnits = rt.WorkUnits
	rep.Route = time.Duration(rt.WorkUnits) * opts.Cost.RoutePerUnit

	// Phase 4: timing closure.
	if err := enter(ctx, co.OnPhase, PhaseTiming); err != nil {
		return nil, err
	}
	ta, err := timing.Analyze(net, pl, rt, opts.Delay)
	if err != nil {
		return nil, fmt.Errorf("vti: timing: %w", err)
	}
	out.Timing = ta
	rep.Timing = time.Duration(ta.WorkUnits) * opts.Cost.TimingPerUnit
	rep.FmaxMHz = ta.FmaxMHz
	rep.TimingMetTarget = ta.MeetsFrequency(opts.TargetMHz)

	// Phase 5: full-device bitstream.
	if err := enter(ctx, co.OnPhase, PhaseBitgen); err != nil {
		return nil, err
	}
	frames := opts.Device.TotalFrames()
	rep.FramesEmitted = frames
	rep.Bitgen = time.Duration(frames) * opts.Cost.BitgenPerFrame

	if !opts.SkipImage {
		if err := enter(ctx, co.OnPhase, PhaseImage); err != nil {
			return nil, err
		}
		img, err := toolchain.BuildImage(d, pl, opts)
		if err != nil {
			return nil, err
		}
		out.Image = img
	}
	return &Result{Result: out, Specs: opts.Partitions, cache: cache}, nil
}

// coldCells counts the per-instance cells under m whose modules the cache
// mapped itself; subtrees served whole from the checkpoint store cost 0.
func coldCells(cache *synth.Cache, m *rtl.Module, n *synth.ModuleNetlist) int {
	if cache.WasHit(m) {
		return 0
	}
	cold := n.LocalCellCount
	for i, inst := range m.Instances {
		cold += coldCells(cache, inst.Module, n.Children[i].Netlist)
	}
	return cold
}

// RecompileCtx compiles a changed design in which only the named
// partition's modules differ from the previous result, as a cancellable
// phase graph. See Result.Recompile for the sharing contract.
func (r *Result) RecompileCtx(ctx context.Context, newDesign *rtl.Design, partition string, ro RecompileOptions) (*Result, error) {
	opts := r.Options
	spec, ok := findSpec(r.Specs, partition)
	if !ok {
		return nil, fmt.Errorf("vti: unknown partition %q", partition)
	}

	out := &toolchain.Result{Design: newDesign, Options: opts}
	rep := &out.Report
	rep.Flow = "vti-incremental"
	if !ro.Resident {
		rep.Start = opts.Cost.Startup
	}

	// Phase 1: incremental synthesis. Only modules without a checkpoint —
	// by pointer or by content digest — are mapped; the partition's roots
	// synthesize on parallel workers.
	if err := enter(ctx, ro.OnPhase, PhaseSynth); err != nil {
		return nil, err
	}
	cache := r.cacheOrNew()
	if opts.Inject != nil && opts.Inject.Synth != nil {
		cache.SetNetlistHook(opts.Inject.Synth)
	}
	before := cacheSize(cache)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var synthErr error
	for _, path := range spec.Paths {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			if ctx.Err() != nil {
				return
			}
			mod, err := moduleAt(newDesign, path)
			if err == nil {
				_, err = cache.Module(mod)
			}
			if err != nil {
				errMu.Lock()
				if synthErr == nil {
					synthErr = err
				}
				errMu.Unlock()
			}
		}(path)
	}
	wg.Wait()
	if synthErr != nil {
		return nil, fmt.Errorf("vti: partition synthesis: %w", synthErr)
	}
	if err := gate(ctx, PhaseSynth); err != nil {
		return nil, err
	}
	net, err := cache.Module(newDesign.Top)
	if err != nil {
		return nil, fmt.Errorf("vti: synthesis: %w", err)
	}
	out.Netlist = net
	newCells := cacheSize(cache) - before
	rep.CellsSynthesized = newCells
	rep.Synth = time.Duration(newCells) * opts.Cost.SynthPerCell

	// Phase 2: incremental placement — everything outside the partition
	// keeps its tiles and frame addresses; the partition is re-placed from
	// scratch inside its reserved region.
	if err := enter(ctx, ro.OnPhase, PhasePlace); err != nil {
		return nil, err
	}
	pl, placeWork, err := place.Replace(r.Placement, net, r.Specs, partition, opts.PlaceHooks()...)
	if err != nil {
		return nil, fmt.Errorf("vti: placement: %w", err)
	}
	out.Placement = pl
	rep.CellsPlaced = placeWork
	rep.Place = time.Duration(placeWork) * opts.Cost.PlacePerUnit

	// Phase 3: routing and, phase 4, timing rerun over the whole design,
	// but only partition-local work is charged: routing for the edges
	// that start or end in the partition, timing for the edges into its
	// cells.
	if err := enter(ctx, ro.OnPhase, PhaseRoute); err != nil {
		return nil, err
	}
	rt, err := route.Route(net, pl, opts.RouteHooks()...)
	if err != nil {
		return nil, fmt.Errorf("vti: routing: %w", err)
	}
	out.Routing = rt
	cells := net.Flat()
	inPart := make([]bool, len(cells))
	for i := range cells {
		inPart[i] = pl.PartitionOf[cells[i].Name] == partition
	}
	var routeWork int64
	for _, e := range rt.Edges {
		if inPart[e.Src] || inPart[e.Dst] {
			routeWork += int64(1 + e.Dist/16)
		}
	}
	rep.RouteUnits = routeWork
	rep.Route = time.Duration(routeWork) * opts.Cost.RoutePerUnit

	if err := enter(ctx, ro.OnPhase, PhaseTiming); err != nil {
		return nil, err
	}
	ta, err := timing.Analyze(net, pl, rt, opts.Delay)
	if err != nil {
		return nil, fmt.Errorf("vti: timing: %w", err)
	}
	out.Timing = ta
	partEdges := int64(0)
	for _, e := range rt.Edges {
		if inPart[e.Dst] {
			partEdges++
		}
	}
	rep.Timing = time.Duration(partEdges) * opts.Cost.TimingPerUnit
	rep.FmaxMHz = ta.FmaxMHz
	rep.TimingMetTarget = ta.MeetsFrequency(opts.TargetMHz)

	// Phase 5: partial bitstream — only the partition's region frames are
	// emitted...
	if err := enter(ctx, ro.OnPhase, PhaseBitgen); err != nil {
		return nil, err
	}
	frames := 0
	for _, region := range pl.Regions[partition] {
		lo, hi := region.FrameRange(opts.Device)
		frames += hi - lo
	}
	rep.FramesEmitted = frames
	rep.Bitgen = time.Duration(frames) * opts.Cost.BitgenPerFrame

	// Phase 6: ...and linking stitches them into the full-device frame
	// directory.
	if err := enter(ctx, ro.OnPhase, PhaseLink); err != nil {
		return nil, err
	}
	rep.Link = time.Duration(opts.Device.TotalFrames()) * opts.Cost.LinkPerFrame

	if !opts.SkipImage {
		if err := enter(ctx, ro.OnPhase, PhaseImage); err != nil {
			return nil, err
		}
		img, err := toolchain.BuildImage(newDesign, pl, opts)
		if err != nil {
			return nil, err
		}
		out.Image = img
	}
	return &Result{Result: out, Specs: r.Specs, cache: cache}, nil
}
