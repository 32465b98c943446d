package vti

import (
	"context"
	"fmt"
	"time"

	"zoomie/internal/place"
	"zoomie/internal/rtl"
	"zoomie/internal/synth"
	"zoomie/internal/toolchain"
)

// The phases of a VTI compile, as toolchain.Run enters them. Phase names
// are stable — they travel over the wire as compile progress frames.
const (
	PhaseSynth  = toolchain.PhaseSynth
	PhasePlace  = toolchain.PhasePlace
	PhaseRoute  = toolchain.PhaseRoute
	PhaseTiming = toolchain.PhaseTiming
	PhaseBitgen = toolchain.PhaseBitgen
	PhaseLink   = toolchain.PhaseLink
)

// CompileOptions configures a cancellable compile beyond the toolchain
// options themselves.
type CompileOptions struct {
	// Store supplies the checkpoint store; nil means a fresh private
	// store. Passing a shared synth.Store is what makes one client's
	// synthesis another client's cache hit.
	Store synth.Store
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

// CompileCtx performs the initial VTI compile as a cancellable phase
// sequence. opts.Partitions must name at least one partition. Each
// partition path, and the static remainder, is a compilation unit. The
// units synthesize one after another, but modeled synthesis time is the
// maximum over them, modelling §3.5's parallel partition compile. Each
// unit is charged only its cold cells: checkpoints already in the store
// are free.
func CompileCtx(ctx context.Context, d *rtl.Design, opts toolchain.Options, co CompileOptions) (*Result, error) {
	if len(opts.Partitions) == 0 {
		return nil, fmt.Errorf("vti: at least one partition is required")
	}
	opts = opts.WithDefaults()
	store := opts.CheckpointStore(co.Store)
	res, err := toolchain.Run(ctx, d, opts, toolchain.Flow{
		Name: "vti-initial",
		Synth: func(ctx context.Context, c *synth.Cache) (*synth.ModuleNetlist, int, time.Duration, error) {
			maxCells, partCold := 0, 0
			for _, spec := range opts.Partitions {
				n := 0
				for _, path := range spec.Paths {
					mod, sub, err := synthAt(ctx, c, d, path)
					if err != nil {
						return nil, 0, 0, err
					}
					n += coldCells(c, mod, sub)
				}
				partCold += n
				maxCells = max(maxCells, n)
			}
			net, err := c.Module(d.Top)
			if err != nil {
				return nil, 0, 0, err
			}
			maxCells = max(maxCells, coldCells(c, d.Top, net)-partCold)
			// Design split and reset insertion: a linear pass over the design.
			t := time.Duration(maxCells)*opts.Cost.SynthPerCell +
				time.Duration(net.TotalCellCount)*opts.Cost.SynthPerCell/20
			return net, maxCells, t, nil
		},
		Store:   store,
		OnPhase: co.OnPhase,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Specs: opts.Partitions, store: store}, nil
}

// synthAt maps the module at an instance path of d through c, unless ctx
// has ended.
func synthAt(ctx context.Context, c *synth.Cache, d *rtl.Design, path string) (*rtl.Module, *synth.ModuleNetlist, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	mod, err := ModuleAt(d, path)
	if err != nil {
		return nil, nil, err
	}
	n, err := c.Module(mod)
	return mod, n, err
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
// phase sequence. See Result.Recompile for the contract. The recompile
// maps through a cache of its own over the result's checkpoint store, so
// it is charged exactly the cells it maps, whatever other recompiles of
// the same result do meanwhile.
func (r *Result) RecompileCtx(ctx context.Context, newDesign *rtl.Design, partition string, ro RecompileOptions) (*Result, error) {
	spec, ok := place.LookupSpec(r.Specs, partition)
	if !ok {
		return nil, fmt.Errorf("vti: unknown partition %q", partition)
	}
	opts := r.Options
	res, err := toolchain.Run(ctx, newDesign, opts, toolchain.Flow{
		Name: "vti-incremental",
		// Only modules without a checkpoint are mapped, the partition's
		// roots first.
		Synth: func(ctx context.Context, c *synth.Cache) (*synth.ModuleNetlist, int, time.Duration, error) {
			for _, path := range spec.Paths {
				if _, _, err := synthAt(ctx, c, newDesign, path); err != nil {
					return nil, 0, 0, err
				}
			}
			net, err := c.Module(newDesign.Top)
			if err != nil {
				return nil, 0, 0, err
			}
			cells := c.CellCount()
			return net, cells, time.Duration(cells) * opts.Cost.SynthPerCell, nil
		},
		// Everything outside the partition keeps its tiles and frame
		// addresses; the partition is re-placed inside its reserved region.
		Place: func(net *synth.ModuleNetlist) (*place.Placement, int64, error) {
			return place.Replace(r.Placement, r.Netlist, net, r.Specs, partition, opts.PlaceHooks()...)
		},
		// Routing and timing rerun over the whole design, but only
		// partition-local work is charged: routing for the edges that
		// start or end in the partition, timing for the edges into its
		// cells, and a partial bitstream of its region's frames, which
		// the link phase stitches into the full-device frame directory.
		Charge: func(out *toolchain.Result) (routeWork, timingWork int64, frames int) {
			parts := out.Placement.Parts
			inPart := make([]bool, len(parts))
			for i, part := range parts {
				inPart[i] = part == partition
			}
			for _, e := range out.Routing.Edges {
				if inPart[e.Src] || inPart[e.Dst] {
					routeWork += int64(1 + e.Dist/16)
				}
				if inPart[e.Dst] {
					timingWork++
				}
			}
			for _, region := range out.Placement.Regions[partition] {
				lo, hi := region.FrameRange(opts.Device)
				frames += hi - lo
			}
			return routeWork, timingWork, frames
		},
		Link:     true,
		Resident: ro.Resident,
		Store:    r.store,
		OnPhase:  ro.OnPhase,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Specs: r.Specs, store: r.store}, nil
}
