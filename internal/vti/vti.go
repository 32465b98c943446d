// Package vti implements the Vendor Tool Incrementalizer — the paper's
// incremental compilation flow (§3.5). The designer declares partitions
// (module instance subtrees they intend to iterate on). The initial
// compile splits the design and reserves an over-provisioned region per
// partition on a single SLR; its synthesis is charged as if partitions
// compiled in parallel, the maximum over compilation units. Later
// recompiles touch only the changed partition and relink, which is where
// the ~18× turnaround win over the vendor flow comes from. Both are flows
// of toolchain.Run.
package vti

import (
	"context"
	"fmt"
	"strings"

	"zoomie/internal/place"
	"zoomie/internal/rtl"
	"zoomie/internal/synth"
	"zoomie/internal/toolchain"
)

// Result is a completed VTI compile: the toolchain result plus what fast
// recompiles need, the partitions and the checkpoint store of per-module
// netlists that every recompile maps through.
type Result struct {
	*toolchain.Result
	Specs []place.PartitionSpec
	store synth.Store
}

// Compile performs the initial VTI compile. opts.Partitions must name at
// least one partition.
func Compile(d *rtl.Design, opts toolchain.Options) (*Result, error) {
	return CompileCtx(context.Background(), d, opts, CompileOptions{})
}

// Recompile compiles a changed design in which only the named partition's
// modules differ from the previous result. Unchanged module netlists are
// checkpoint hits by content digest; only the changed partition is
// re-placed and re-routed inside its reserved region, then the design is
// relinked.
//
// newDesign must equal the previous design outside the changed partition,
// which is exactly the contract of editing one module of a hierarchy.
func (r *Result) Recompile(newDesign *rtl.Design, partition string) (*Result, error) {
	return r.RecompileCtx(context.Background(), newDesign, partition, RecompileOptions{})
}

// PartialFrames returns the frame addresses (per SLR) of a partition's
// region — what a partial bitstream for it would program.
func (r *Result) PartialFrames(partition string) map[int][]int {
	out := make(map[int][]int)
	for _, region := range r.Placement.Regions[partition] {
		lo, hi := region.FrameRange(r.Options.Device)
		for f := lo; f < hi; f++ {
			out[region.SLR] = append(out[region.SLR], f)
		}
	}
	return out
}

// ModuleAt resolves the module instantiated at a dotted instance path
// ("" resolves to the top module). The compile farm uses it to apply
// canonical debug edits to a partition's module.
func ModuleAt(d *rtl.Design, path string) (*rtl.Module, error) {
	cur := d.Top
	if path == "" {
		return cur, nil
	}
	for _, seg := range strings.Split(path, ".") {
		var next *rtl.Module
		for _, inst := range cur.Instances {
			if inst.Name == seg {
				next = inst.Module
				break
			}
		}
		if next == nil {
			return nil, fmt.Errorf("vti: no instance %q under %s", seg, cur.Name)
		}
		cur = next
	}
	return cur, nil
}
