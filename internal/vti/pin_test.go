package vti_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"zoomie/internal/farm"
	"zoomie/internal/gen"
	"zoomie/internal/place"
	"zoomie/internal/rtl"
	"zoomie/internal/toolchain"
	"zoomie/internal/vti"
	"zoomie/internal/workloads"
)

// compilePins holds, per compile, a hash of everything route, timing and
// the flow's report produce, plus the bitstream digest. The values were
// recorded before the passes were rewritten over one flat netlist with
// dense indices; any change to an edge, its order, an arrival, a path
// tie-break or a modeled charge moves a pin.
var compilePins = map[string]string{
	"manycore16/recompile1":         "727b78eea087ed7a",
	"manycore16/recompile2":         "470f4e17d0da68bb",
	"manycore16/recompile3":         "2794095c5a1b971e",
	"manycore16/vti":                "77bd2eee00b17b1a",
	"manycore256/recompile1":        "0234ed5f3ea09e0e",
	"manycore256/recompile2":        "9573b78d44a5967b",
	"manycore256/recompile3":        "809306839054814b",
	"manycore256/vti":               "b1c4078fa4ddb112",
	"manycore4/recompile1":          "5d2172b2087e53bd",
	"manycore4/recompile2":          "f9fffc8b42b7b373",
	"manycore4/recompile3":          "78f4d06d0d7ea1bf",
	"manycore4/vti":                 "a60644e11c175f44",
	"manycore64/recompile1":         "eeb29a479edd83c4",
	"manycore64/recompile2":         "edfa158a5682c6a7",
	"manycore64/recompile3":         "21bf00df4edebd43",
	"manycore64/vti":                "8811605ee5e941e7",
	"synthcheck1.0/farm-recompile1": "e95d6a8fb4871778",
	"synthcheck1.0/farm-vti":        "1ba90b6935ff13c0",
	"synthcheck1.0/incr":            "1a116040bab8b0ab",
	"synthcheck1.0/mono":            "db3ddcfd1dbb6a1d",
	"synthcheck1.0/vti":             "9a66b67905d49fcd",
	"synthcheck1.1/farm-recompile1": "b153ddde1fcf29eb",
	"synthcheck1.1/farm-vti":        "e4c8e45eb076e3c8",
	"synthcheck1.1/incr":            "aa2e1b0d0fd83e83",
	"synthcheck1.1/mono":            "72ad36bf3a3c0f11",
	"synthcheck1.1/vti":             "77b77e6897ee35d1",
}

// compileOutputs hashes every routed edge in order (its endpoints' names
// and tiles, read from the placement's flat cell table) with the routing
// totals, the timing analysis (critical delay bits, top paths, work), the
// report's every field and the bitstream digest.
func compileOutputs(res *toolchain.Result) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	num := func(v int64) { h.Write(buf[:binary.PutVarint(buf[:], v)]) }
	str := func(s string) { num(int64(len(s))); io.WriteString(h, s) }
	bits := func(f float64) { num(int64(math.Float64bits(f))) }
	pos := func(p place.TilePos) { num(int64(p.SLR)); num(int64(p.Row)); num(int64(p.Col)) }

	rt, pl := res.Routing, res.Placement
	num(int64(len(rt.Edges)))
	for _, e := range rt.Edges {
		str(pl.Cells[e.Src].Name)
		str(pl.Cells[e.Dst].Name)
		pos(pl.Tiles[e.Src])
		pos(pl.Tiles[e.Dst])
		num(int64(e.Dist))
		num(int64(e.SLRHops))
	}
	num(rt.TotalWirelength)
	num(int64(rt.SLRCrossings))
	num(rt.WorkUnits)

	ta := res.Timing
	bits(ta.CriticalNs)
	num(int64(len(ta.TopPaths)))
	for _, p := range ta.TopPaths {
		str(p.Endpoint)
		bits(p.DelayNs)
		str(p.Startcell)
	}
	num(ta.WorkUnits)

	r := res.Report
	str(r.Flow)
	for _, d := range []time.Duration{r.Synth, r.Place, r.Route, r.Timing, r.Bitgen, r.Link, r.Start} {
		num(int64(d))
	}
	num(int64(r.CellsSynthesized))
	num(r.CellsPlaced)
	num(r.RouteUnits)
	num(int64(r.FramesEmitted))
	if r.TimingMetTarget {
		num(1)
	} else {
		num(0)
	}
	bits(r.FmaxMHz)

	str(res.BitstreamDigest())
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// farmCompiles runs the initial compile of spec and the resident
// recompiles of the given edit tags on one farm, one after another.
func farmCompiles(t *testing.T, spec farm.Spec, tags ...int) map[string]*toolchain.Result {
	t.Helper()
	f := farm.New(farm.Config{})
	out := map[string]*toolchain.Result{}
	wait := func(name string, j *farm.Job, err error) {
		if err == nil {
			err = j.Wait(context.Background())
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = j.Result().Result
	}
	j, _, err := f.Compile(spec)
	wait("vti", j, err)
	for _, tag := range tags {
		j, _, err := f.Recompile(spec, tag)
		wait(fmt.Sprintf("recompile%d", tag), j, err)
	}
	return out
}

// TestCompileOutputsPinned pins what placement, routing and timing
// produce, and what each flow charges for them, on the manycore the
// compile farm serves (initial compile and resident recompiles of edit
// tags 1-3, at four scales) and on the toolchain self-check's seed-1
// designs (monolithic, vendor-incremental, VTI and farm flows).
func TestCompileOutputsPinned(t *testing.T) {
	got := map[string]string{}
	for _, cores := range []int{4, 16, 64, 256} {
		fam := workloads.NewManycore(cores)
		spec := farm.Spec{
			Design: fmt.Sprintf("manycore%d", cores),
			Build:  func() (*rtl.Design, error) { return fam.Variant(0), nil },
		}
		for name, res := range farmCompiles(t, spec, 1, 2, 3) {
			got[fmt.Sprintf("manycore%d/%s", cores, name)] = compileOutputs(res)
		}
	}

	root := rand.New(rand.NewSource(1))
	for di := 0; di < 2; di++ {
		hd := gen.RandomHierDesign(root, 4)
		var specs []place.PartitionSpec
		for _, p := range hd.Parts {
			specs = append(specs, place.PartitionSpec{Name: "p_" + p, Paths: []string{p}})
		}
		opts := toolchain.Options{Partitions: specs, Clocks: hd.Clocks}
		mono, err := toolchain.Compile(hd.RTL, opts)
		if err != nil {
			t.Fatal(err)
		}
		incr, err := toolchain.CompileIncremental(mono, hd.RTL, opts)
		if err != nil {
			t.Fatal(err)
		}
		vres, err := vti.Compile(hd.RTL, opts)
		if err != nil {
			t.Fatal(err)
		}
		prefix := fmt.Sprintf("synthcheck1.%d/", di)
		got[prefix+"mono"] = compileOutputs(mono)
		got[prefix+"incr"] = compileOutputs(incr)
		got[prefix+"vti"] = compileOutputs(vres.Result)
		spec := farm.Spec{
			Design:  fmt.Sprintf("hier-%x", uint64(hd.BaseSeed)),
			Build:   func() (*rtl.Design, error) { return hd.Rebuild().RTL, nil },
			Options: toolchain.Options{Clocks: hd.Clocks},
		}
		for name, res := range farmCompiles(t, spec, 1) {
			got[prefix+"farm-"+name] = compileOutputs(res)
		}
	}

	for name, sum := range got {
		if want, ok := compilePins[name]; !ok {
			t.Errorf("%s: no pin (got %q)", name, sum)
		} else if sum != want {
			t.Errorf("%s: outputs hash %s, pinned %s", name, sum, want)
		}
	}
	if len(got) != len(compilePins) {
		t.Errorf("%d compiles hashed, %d pinned", len(got), len(compilePins))
	}
}
