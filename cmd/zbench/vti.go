package main

import (
	"context"
	"fmt"

	"zoomie/internal/place"
	"zoomie/internal/synth"
	"zoomie/internal/toolchain"
	"zoomie/internal/vti"
	"zoomie/internal/workloads"
)

// vtiExp benchmarks the content-addressed compile farm across SoC
// scales: the monolithic flow, the vendor incremental flow on the first
// debug edit, a cold VTI initial compile, a warm VTI recompile of the
// same edit, and the shared-cache case — a second client independently
// regenerating the same design against a resident daemon whose
// checkpoint store was populated by the first. All times are modeled and
// deterministic; the final column is the acceptance ratio (vendor
// incremental over warm shared recompile, required >= 10x at 2048).
func vtiExp(int) error {
	header("Compile farm: content-addressed checkpoint reuse across clients")
	fmt.Printf("%6s %12s %12s %12s %12s %12s %8s\n",
		"cores", "mono (h)", "vendor (h)", "vti cold (h)", "vti warm (h)", "shared (h)", "ratio")
	for _, cores := range []int{64, 256, 1024, 2048} {
		ctx := context.Background()
		store := synth.NewMemStore(0)

		// Client A: cold initial compile, then the first debug edit.
		familyA := workloads.NewManycore(cores)
		vopts := vtiOpts(familyA)
		cold, err := vti.CompileCtx(ctx, familyA.Base(), vopts,
			vti.CompileOptions{Store: store})
		if err != nil {
			return err
		}
		warm, err := cold.RecompileCtx(ctx, familyA.Variant(0), "mut",
			vti.RecompileOptions{Resident: true})
		if err != nil {
			return err
		}

		// Client B: same design regenerated from scratch (shared content,
		// no shared pointers), same edit, resident daemon, warm store.
		familyB := workloads.NewManycore(cores)
		resB, err := vti.CompileCtx(ctx, familyB.Base(), vtiOpts(familyB),
			vti.CompileOptions{Store: store})
		if err != nil {
			return err
		}
		shared, err := resB.RecompileCtx(ctx, familyB.Variant(0), "mut",
			vti.RecompileOptions{Resident: true})
		if err != nil {
			return err
		}
		if n := shared.Report.CellsSynthesized; n != 0 {
			return fmt.Errorf("%d cores: shared recompile mapped %d cells, want 0", cores, n)
		}

		// The vendor flows on the identical design and edit.
		mono, err := toolchain.Compile(familyB.Base(), toolchain.Options{SkipImage: true})
		if err != nil {
			return err
		}
		vendor, err := toolchain.CompileIncremental(mono, familyB.Variant(0),
			toolchain.Options{SkipImage: true})
		if err != nil {
			return err
		}

		ratio := float64(vendor.Report.Total()) / float64(shared.Report.Total())
		fmt.Printf("%6d %12.2f %12.2f %12.2f %12.2f %12.3f %7.1fx\n",
			cores,
			mono.Report.Total().Hours(),
			vendor.Report.Total().Hours(),
			cold.Report.Total().Hours(),
			warm.Report.Total().Hours(),
			shared.Report.Total().Hours(),
			ratio)
	}
	fmt.Println("\n(shared = warm shared-cache recompile on a resident daemon: every")
	fmt.Println(" checkpoint — including the edit itself — is a content-addressed hit")
	fmt.Println(" populated by another client; ratio = vendor incremental / shared)")
	return nil
}

// vtiOpts builds the single-partition VTI options for a manycore family.
func vtiOpts(family *workloads.Manycore) toolchain.Options {
	return toolchain.Options{
		SkipImage: true,
		Partitions: []place.PartitionSpec{
			{Name: "mut", Paths: []string{family.MutPath()}},
		},
	}
}
