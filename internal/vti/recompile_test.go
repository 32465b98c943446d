package vti_test

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"zoomie/internal/farm"
	"zoomie/internal/place"
	"zoomie/internal/rtl"
	"zoomie/internal/synth"
	"zoomie/internal/toolchain"
	"zoomie/internal/vti"
	"zoomie/internal/workloads"
)

// manycoreBase compiles the 64-core manycore the way the compile farm
// serves it: each build afresh, edited in its debug partition.
func manycoreBase(t *testing.T) (base *vti.Result, edit func(tag int) *rtl.Design) {
	t.Helper()
	path := workloads.NewManycore(64).MutPath()
	build := func(tag int) *rtl.Design {
		d := workloads.NewManycore(64).Variant(0)
		if err := farm.ApplyEdit(d, path, tag); err != nil {
			t.Fatal(err)
		}
		return d
	}
	base, err := vti.Compile(build(0), toolchain.Options{
		SkipImage:  true,
		Partitions: []place.PartitionSpec{{Name: "mut", Paths: []string{path}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return base, build
}

// TestConcurrentRecompilesChargeOwnCells: resident recompiles of one
// base, run at once, are each charged only the cells they map, exactly
// as when they run one after another. Edit tag k adds k probe registers
// to the partition's cluster, which the recompile maps with the top.
// Five rounds, each on a fresh base, give the recompiles five chances to
// overlap.
func TestConcurrentRecompilesChargeOwnCells(t *testing.T) {
	want := []int{38, 39, 40, 41, 42, 43, 44, 45}
	for round := 0; round < 5; round++ {
		base, edit := manycoreBase(t)
		designs := make([]*rtl.Design, len(want))
		for i := range designs {
			designs[i] = edit(i + 1)
		}
		got := make([]int, len(want))
		errs := make([]error, len(want))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range designs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				res, err := base.RecompileCtx(context.Background(), designs[i], "mut",
					vti.RecompileOptions{Resident: true})
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = res.Report.CellsSynthesized
			}(i)
		}
		close(start)
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("recompile of tag %d: %v", i+1, err)
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: concurrent recompiles of tags 1-8 charged %v cells, want %v",
					round, got, want)
			}
		}
	}
}

// TestBaseDoesNotKeepRecompilesAlive: a recompiled design is garbage once
// its result is dropped, although the base it recompiled lives on. A
// daemon's farm keeps a base as long as it serves recompiles of it, so
// anything the base kept of each recompile would grow its heap forever.
func TestBaseDoesNotKeepRecompilesAlive(t *testing.T) {
	base, edit := manycoreBase(t)
	defer runtime.KeepAlive(base) // the base must outlive the GC loop

	collected := make(chan struct{})
	func() {
		d := edit(1)
		// A module points at itself through its signals, and the collector
		// runs no finalizer in a cycle. So the probe is an empty module,
		// instantiated in the edited partition.
		part, err := vti.ModuleAt(d, workloads.NewManycore(64).MutPath())
		if err != nil {
			t.Fatal(err)
		}
		probe := rtl.NewModule("probe")
		part.Instantiate("probe", probe)
		runtime.SetFinalizer(probe, func(*rtl.Module) { close(collected) })
		res, err := base.RecompileCtx(context.Background(), d, "mut",
			vti.RecompileOptions{Resident: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.CellsSynthesized == 0 {
			t.Fatal("the edit mapped no cells")
		}
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped recompile's design is still reachable from its base")
}

// TestDroppedRecompileFreesFlatTable: a compile's flat cell table lives
// with its placement, not with its netlist. Once a recompile's result is
// dropped its table is garbage, although the base's checkpoint store
// still holds the recompile's netlist.
func TestDroppedRecompileFreesFlatTable(t *testing.T) {
	base, edit := manycoreBase(t)
	defer runtime.KeepAlive(base) // its store holds the recompile's netlist
	var net *synth.ModuleNetlist
	collected := make(chan struct{})
	func() {
		res, err := base.RecompileCtx(context.Background(), edit(1), "mut",
			vti.RecompileOptions{Resident: true})
		if err != nil {
			t.Fatal(err)
		}
		net = res.Netlist
		runtime.SetFinalizer(&res.Placement.Cells[0], func(*synth.FlatCell) { close(collected) })
	}()
	defer runtime.KeepAlive(net)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped recompile's flat cell table is still reachable from its netlist")
}

// TestRecompileRefusesStaticLogicChange: a recompile whose logic outside
// its partition changed under the same names is refused, and the error
// names the cell. The manycore top's checksum register gets a new
// next-state function beside the partition's edit.
func TestRecompileRefusesStaticLogicChange(t *testing.T) {
	base, edit := manycoreBase(t)
	d := edit(1)
	csum := d.Top.Signal("checksum_r")
	d.Top.SetNext(csum, rtl.Add(rtl.S(csum), rtl.C(1, 32)))
	_, err := base.Recompile(d, "mut")
	if err == nil {
		t.Fatal("a recompile changing the static checksum register was accepted")
	}
	if !strings.Contains(err.Error(), `"checksum_r"`) {
		t.Errorf("error %q does not name checksum_r", err)
	}
}
