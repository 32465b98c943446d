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
	"sort"
	"sync"
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

// stateMapPins holds, per compile, a hash of its state map in order
// (stateMapOutputs). The values were recorded before recompiles carried
// their base's state entries by table position.
var stateMapPins = map[string]string{
	"manycore16/recompile1":         "33220841fd966c65",
	"manycore16/recompile2":         "01773ca111fc6d1a",
	"manycore16/recompile3":         "a520592b1cfdf690",
	"manycore16/vti":                "22d89e35358cfd81",
	"manycore256/recompile1":        "419bc130fc3db58f",
	"manycore256/recompile2":        "9ca194915e6f380c",
	"manycore256/recompile3":        "bee197ed051ebe1e",
	"manycore256/vti":               "539d90ab1331452f",
	"manycore4/recompile1":          "532acdad615771cc",
	"manycore4/recompile2":          "b8025364cc040d9b",
	"manycore4/recompile3":          "5290591c883555f8",
	"manycore4/vti":                 "004d813f3c9c87d5",
	"manycore64/recompile1":         "1ba66cc19e5cd079",
	"manycore64/recompile2":         "83d82bbb0be935a7",
	"manycore64/recompile3":         "f7aef8ed7cb1b653",
	"manycore64/vti":                "5e6c543446cc961a",
	"synthcheck1.0/farm-recompile1": "65af05e29ff2073f",
	"synthcheck1.0/farm-vti":        "d957ca55727215df",
	"synthcheck1.0/incr":            "ff489d5d1dbe8d00",
	"synthcheck1.0/mono":            "ff489d5d1dbe8d00",
	"synthcheck1.0/vti":             "ff489d5d1dbe8d00",
	"synthcheck1.1/farm-recompile1": "861af4bea2a1ffd0",
	"synthcheck1.1/farm-vti":        "09a59555302fb329",
	"synthcheck1.1/incr":            "3d779a89fbb5f8c8",
	"synthcheck1.1/mono":            "3d779a89fbb5f8c8",
	"synthcheck1.1/vti":             "3d779a89fbb5f8c8",
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

// stateMapOutputs hashes the state map in order: every register and
// memory placement as listed in Regs and Mems, then, frame by frame in
// SLR and frame order, the state each frame lists (FrameItems). The
// bitstream digest sorts the state by name; snapshots, history and
// fpga.Board index it by this order.
func stateMapOutputs(res *toolchain.Result) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	num := func(v int64) { h.Write(buf[:binary.PutVarint(buf[:], v)]) }
	str := func(s string) { num(int64(len(s))); io.WriteString(h, s) }

	sm := res.Placement.StateMap
	num(int64(len(sm.Regs)))
	for _, r := range sm.Regs {
		str(r.Name)
		num(int64(r.Width))
		num(int64(r.Addr.SLR))
		num(int64(r.Addr.Frame))
		num(int64(r.Addr.Bit))
	}
	num(int64(len(sm.Mems)))
	for _, m := range sm.Mems {
		str(m.Name)
		num(int64(m.Width))
		num(int64(m.Depth))
		num(int64(m.SLR))
		num(int64(m.StartFrame))
	}
	frames := sm.FramesTouched(nil)
	slrs := make([]int, 0, len(frames))
	for slr := range frames {
		slrs = append(slrs, slr)
	}
	sort.Ints(slrs)
	for _, slr := range slrs {
		for _, f := range frames[slr] {
			items := sm.FrameItems(slr, f)
			num(int64(slr))
			num(int64(f))
			num(int64(len(items)))
			for _, it := range items {
				num(int64(it.Index))
				if it.Mem {
					num(1)
				} else {
					num(0)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// farmCompiles runs the initial compile of spec and the resident
// recompiles of the given edit tags on one farm, one after another.
func farmCompiles(spec farm.Spec, out map[string]*toolchain.Result, prefix string, tags ...int) error {
	f := farm.New(farm.Config{})
	wait := func(name string, j *farm.Job, err error) error {
		if err == nil {
			err = j.Wait(context.Background())
		}
		if err != nil {
			return fmt.Errorf("%s%s: %w", prefix, name, err)
		}
		out[prefix+name] = j.Result().Result
		return nil
	}
	j, _, err := f.Compile(spec)
	if err := wait("vti", j, err); err != nil {
		return err
	}
	for _, tag := range tags {
		j, _, err := f.Recompile(spec, tag)
		if err := wait(fmt.Sprintf("recompile%d", tag), j, err); err != nil {
			return err
		}
	}
	return nil
}

// pinnedCompiles runs the pinned compiles once per test binary: on the
// manycore the compile farm serves, the initial compile and resident
// recompiles of edit tags 1-3, at four scales; on the toolchain
// self-check's seed-1 designs, the monolithic, vendor-incremental, VTI
// and farm flows.
var pinnedCompiles = sync.OnceValues(func() (map[string]*toolchain.Result, error) {
	out := map[string]*toolchain.Result{}
	for _, cores := range []int{4, 16, 64, 256} {
		fam := workloads.NewManycore(cores)
		spec := farm.Spec{
			Design: fmt.Sprintf("manycore%d", cores),
			Build:  func() (*rtl.Design, error) { return fam.Variant(0), nil },
		}
		if err := farmCompiles(spec, out, fmt.Sprintf("manycore%d/", cores), 1, 2, 3); err != nil {
			return nil, err
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
			return nil, err
		}
		incr, err := toolchain.CompileIncremental(mono, hd.RTL, opts)
		if err != nil {
			return nil, err
		}
		vres, err := vti.Compile(hd.RTL, opts)
		if err != nil {
			return nil, err
		}
		prefix := fmt.Sprintf("synthcheck1.%d/", di)
		out[prefix+"mono"] = mono
		out[prefix+"incr"] = incr
		out[prefix+"vti"] = vres.Result
		spec := farm.Spec{
			Design:  fmt.Sprintf("hier-%x", uint64(hd.BaseSeed)),
			Build:   func() (*rtl.Design, error) { return hd.Rebuild().RTL, nil },
			Options: toolchain.Options{Clocks: hd.Clocks},
		}
		if err := farmCompiles(spec, out, prefix+"farm-", 1); err != nil {
			return nil, err
		}
	}
	return out, nil
})

// checkPins hashes every pinned compile and compares it with its pin.
func checkPins(t *testing.T, pins map[string]string, hash func(*toolchain.Result) string) {
	t.Helper()
	compiles, err := pinnedCompiles()
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range compiles {
		sum := hash(res)
		if want, ok := pins[name]; !ok {
			t.Errorf("%s: no pin (got %q)", name, sum)
		} else if sum != want {
			t.Errorf("%s: hash %s, pinned %s", name, sum, want)
		}
	}
	if len(compiles) != len(pins) {
		t.Errorf("%d compiles hashed, %d pinned", len(compiles), len(pins))
	}
}

// TestCompileOutputsPinned pins what placement, routing and timing
// produce, and what each flow charges for them, on every pinned compile.
func TestCompileOutputsPinned(t *testing.T) {
	checkPins(t, compilePins, compileOutputs)
}

// TestStateMapsPinned pins every pinned compile's state map in order,
// with its per-frame index.
func TestStateMapsPinned(t *testing.T) {
	checkPins(t, stateMapPins, stateMapOutputs)
}
