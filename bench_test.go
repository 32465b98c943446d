// Benchmarks regenerating the paper's evaluation, one per table/figure
// (see DESIGN.md for the experiment index and cmd/zbench for the
// full-scale paper-vs-measured runs; the benchmarks use CI-friendly
// scales and report the headline numbers as custom metrics).
package zoomie_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"zoomie"
	"zoomie/internal/farm"
	"zoomie/internal/fpga"
	"zoomie/internal/place"
	"zoomie/internal/rtl"
	"zoomie/internal/sim"
	"zoomie/internal/sva"
	"zoomie/internal/synth"
	"zoomie/internal/toolchain"
	"zoomie/internal/vti"
	"zoomie/internal/workloads"
)

const benchCores = 400 // manycore scale for compile benchmarks

// BenchmarkTable1Flows measures the three compilation flows' end-to-end
// modeled time on the same design (Table 1's structural comparison made
// quantitative): monolithic recompiles everything, vendor-incremental
// shaves a fraction, VTI recompiles one partition and relinks.
func BenchmarkTable1Flows(b *testing.B) {
	family := workloads.NewManycore(benchCores)
	base := family.Base()
	opts := toolchain.Options{SkipImage: true}
	vopts := toolchain.Options{SkipImage: true, Partitions: []place.PartitionSpec{
		{Name: "mut", Paths: []string{family.MutPath()}}}}
	for i := 0; i < b.N; i++ {
		mono, err := toolchain.Compile(base, opts)
		if err != nil {
			b.Fatal(err)
		}
		vres, err := vti.Compile(base, vopts)
		if err != nil {
			b.Fatal(err)
		}
		inc, err := vres.Recompile(family.Variant(0), "mut")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mono.Report.Total().Hours(), "mono-hours")
		b.ReportMetric(inc.Report.Total().Hours(), "vti-inc-hours")
	}
}

// BenchmarkTable2Utilization synthesizes the full 5400-core SoC and
// reports the Table 2 utilization percentages.
func BenchmarkTable2Utilization(b *testing.B) {
	capTotal := fpga.NewU200().Capacity()
	for i := 0; i < b.N; i++ {
		net, err := synth.Synthesize(workloads.ManycoreSoC(5400))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*float64(net.TotalUsage[fpga.LUT])/float64(capTotal[fpga.LUT]), "LUT-%")
		b.ReportMetric(100*float64(net.TotalUsage[fpga.FF])/float64(capTotal[fpga.FF]), "FF-%")
		b.ReportMetric(100*float64(net.TotalUsage[fpga.BRAM])/float64(capTotal[fpga.BRAM]), "BRAM-%")
		b.ReportMetric(100*float64(net.TotalUsage[fpga.LUTRAM])/float64(capTotal[fpga.LUTRAM]), "LUTRAM-%")
	}
}

// BenchmarkFig7Incremental measures the Figure 7 mechanism: one VTI
// initial compile plus an incremental recompile, reporting the modeled
// speedup of the incremental run over the monolithic flow.
func BenchmarkFig7Incremental(b *testing.B) {
	family := workloads.NewManycore(benchCores)
	base := family.Base()
	opts := toolchain.Options{SkipImage: true}
	mono, err := toolchain.Compile(base, opts)
	if err != nil {
		b.Fatal(err)
	}
	vopts := toolchain.Options{SkipImage: true, Partitions: []place.PartitionSpec{
		{Name: "mut", Paths: []string{family.MutPath()}}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vres, err := vti.Compile(base, vopts)
		if err != nil {
			b.Fatal(err)
		}
		inc, err := vres.Recompile(family.Variant(i%5), "mut")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(mono.Report.Total())/float64(inc.Report.Total()), "modeled-speedup-x")
	}
}

// BenchmarkFarmRecompile measures the compile farm's resident recompile of
// the 256-core manycore, the op of zperf's recompile_farm workload: the
// edited partition's synthesis, incremental placement, routing and timing
// against one initial compile. Every recompile edits a tag its checkpoint
// store has not seen, so it maps the edited module and builds a new top
// netlist, as a farm recompile of a fresh tag does. The initial compiles
// and building the edited designs are left out.
func BenchmarkFarmRecompile(b *testing.B) {
	const tags = 64
	fam := workloads.NewManycore(256)
	d := fam.Variant(0)
	path := farm.ResolvePartition(farm.Spec{}, d)
	opts := toolchain.Options{SkipImage: true, Partitions: []place.PartitionSpec{
		{Name: farm.PartitionName, Paths: []string{path}}}}.WithDefaults()
	ctx := context.Background()
	var base *vti.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%tags == 0 {
			var err error
			base, err = vti.CompileCtx(ctx, fam.Variant(0), opts,
				vti.CompileOptions{})
			if err != nil {
				b.Fatal(err)
			}
		}
		edited := fam.Variant(0)
		if err := farm.ApplyEdit(edited, path, i%tags+1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := base.RecompileCtx(ctx, edited, farm.PartitionName, vti.RecompileOptions{Resident: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitstreamDigest measures hashing the configured artifact of
// the 256-core manycore's initial compile, as the compile farm digests
// every finished job: each cell's name, tile and partition, and each
// register's and memory's frame address, in name order.
func BenchmarkBitstreamDigest(b *testing.B) {
	fam := workloads.NewManycore(256)
	d := fam.Variant(0)
	path := farm.ResolvePartition(farm.Spec{}, d)
	opts := toolchain.Options{SkipImage: true, Partitions: []place.PartitionSpec{
		{Name: farm.PartitionName, Paths: []string{path}}}}.WithDefaults()
	base, err := vti.CompileCtx(context.Background(), d, opts, vti.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.BitstreamDigest()
	}
}

// BenchmarkTable3Readback measures SLR-aware vs naive readback through
// the full bitstream/JTAG stack, reporting the modeled speedup.
func BenchmarkTable3Readback(b *testing.B) {
	sess, err := zoomie.Debug(benchCounter(), zoomie.DebugConfig{})
	if err != nil {
		b.Fatal(err)
	}
	const mutFrames = 250 // the full-scale MUT region footprint
	cable := sess.Cable
	window := make([]int, mutFrames)
	for i := range window {
		window[i] = i
	}
	all := make([]int, cable.Board.Device.SLRs[0].Frames)
	for i := range all {
		all[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cable.ResetStats()
		if _, err := cable.ReadbackFrames(0, window); err != nil {
			b.Fatal(err)
		}
		opt := cable.Elapsed()
		cable.ResetStats()
		if _, err := cable.ReadbackFrames(0, all); err != nil {
			b.Fatal(err)
		}
		naive := cable.Elapsed()
		b.ReportMetric(naive.Seconds(), "naive-s")
		b.ReportMetric(opt.Seconds(), "optimized-s")
		b.ReportMetric(float64(naive)/float64(opt), "modeled-speedup-x")
	}
}

// BenchmarkFig8AssertionSynthesis compiles the seven synthesizable Ariane
// assertions and reports the total monitor hardware.
func BenchmarkFig8AssertionSynthesis(b *testing.B) {
	widths := sva.ArianeSignalWidths()
	for i := 0; i < b.N; i++ {
		totalFF, totalLUT := 0, 0
		for j, aa := range sva.ArianeAssertions() {
			a, err := sva.Parse(aa.Source)
			if j == 2 {
				var ue *sva.UnsupportedError
				if !errors.As(err, &ue) {
					b.Fatal("assertion #3 must fail on $isunknown")
				}
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
			mon, err := sva.Compile(a, aa.Name, "clk", widths)
			if err != nil {
				b.Fatal(err)
			}
			net, err := synth.Synthesize(rtl.NewDesign(aa.Name, mon.Module))
			if err != nil {
				b.Fatal(err)
			}
			totalFF += net.TotalUsage[fpga.FF]
			totalLUT += net.TotalUsage[fpga.LUT]
		}
		b.ReportMetric(float64(totalFF), "total-FF")
		b.ReportMetric(float64(totalLUT), "total-LUT")
	}
}

// BenchmarkTable4Parser parses one probe per Table 4 feature row.
func BenchmarkTable4Parser(b *testing.B) {
	probes := []string{
		"assert (A == B);",
		"assert property (@(posedge clk) a |-> $past(sig, 2));",
		"assert property (@(posedge clk) a |-> b);",
		"assert property (@(posedge clk) a ##2 b |-> c);",
		"assert property (@(posedge clk) a |-> a ##[1:2] b);",
		"assert property (@(posedge clk) a |-> (a ##1 b)[*2]);",
		"assert property (@(posedge clk) a |-> (a and b));",
	}
	for i := 0; i < b.N; i++ {
		for _, src := range probes {
			if _, err := sva.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTradeoffTimingClosure runs the §5.2 over-provisioning study at
// bench scale and reports the critical path.
func BenchmarkTradeoffTimingClosure(b *testing.B) {
	family := workloads.NewManycore(benchCores)
	base := family.Base()
	for i := 0; i < b.N; i++ {
		for _, c := range []float64{0.30, 0.15} {
			res, err := vti.Compile(base, toolchain.Options{
				SkipImage: true,
				Partitions: []place.PartitionSpec{
					{Name: "mut", Paths: []string{family.MutPath()}, OverProvision: c}},
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Timing.MeetsFrequency(50) {
				b.Fatalf("c=%.2f misses 50 MHz", c)
			}
			b.ReportMetric(res.Timing.CriticalNs, "critical-ns")
		}
	}
}

// BenchmarkBOUTReadback measures the §4.5 probe readback round trip: SLR
// selection via BOUT pulses plus a one-frame read from each chiplet.
func BenchmarkBOUTReadback(b *testing.B) {
	sess, err := zoomie.Debug(benchCounter(), zoomie.DebugConfig{})
	if err != nil {
		b.Fatal(err)
	}
	cable := sess.Cable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for slr := 0; slr < 3; slr++ {
			if _, err := cable.ReadbackFrames(slr, []int{11}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCase1CohortHunt runs the full case-study-1 flow: boot the buggy
// accelerator, watch it hang, pause, inspect five registers, force state,
// verify progress.
func BenchmarkCase1CohortHunt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess, err := zoomie.Debug(workloads.CohortAccel(true), zoomie.DebugConfig{
			Watches: []string{"result_count", "done"}})
		if err != nil {
			b.Fatal(err)
		}
		sess.PokeInput("en", 1)
		sess.PokeInput("n_items", 10)
		sess.Run(600)
		if err := sess.Pause(); err != nil {
			b.Fatal(err)
		}
		for _, sig := range []string{"datapath.result_cnt", "lsu.state", "sysbus.req_count", "mmu.busy"} {
			if _, err := sess.Peek(sig); err != nil {
				b.Fatal(err)
			}
		}
		if v, _ := sess.Peek("lsu.state"); v != 2 {
			b.Fatalf("lsu.state = %d, want 2", v)
		}
	}
}

// BenchmarkCase2ExceptionBreakpoint runs the case-study-2 nested-exception
// breakpoint to the trap loop.
func BenchmarkCase2ExceptionBreakpoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess, err := zoomie.Debug(workloads.ExceptionSoC(workloads.HangingExceptionProgram()),
			zoomie.DebugConfig{Watches: []string{"mcause63", "mie", "mpie", "trap"}})
		if err != nil {
			b.Fatal(err)
		}
		sess.PokeInput("en", 1)
		for sig, want := range map[string]uint64{"mcause63": 0, "mie": 0, "mpie": 0, "trap": 1} {
			if err := sess.SetValueBreakpoint(sig, want, zoomie.BreakAll); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sess.RunUntilPaused(1 << 14); err != nil {
			b.Fatal(err)
		}
		pc, _ := sess.Peek("ariane.pc_r")
		mepc, _ := sess.Peek("ariane.mepc")
		if pc != mepc {
			b.Fatalf("trap loop signature broken: pc=%#x mepc=%#x", pc, mepc)
		}
	}
}

// BenchmarkCase3NetstackPause runs the case-study-3 flow: break on a
// frame count at 250 MHz, observe the drop queue absorbing while paused.
func BenchmarkCase3NetstackPause(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess, err := zoomie.Debug(workloads.NetStack(), zoomie.DebugConfig{
			UserClock:   workloads.NetClk,
			Watches:     []string{"pkt_count", "dropped_frames"},
			PauseInputs: []string{"dbg_paused"},
			ExtraClocks: []zoomie.ClockSpec{{Name: workloads.MacClk, Period: 1}},
			Compile:     zoomie.CompileOptions{TargetMHz: 250},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !sess.Result.Report.TimingMetTarget {
			b.Fatalf("netstack misses 250 MHz: %.1f", sess.Result.Report.FmaxMHz)
		}
		sess.PokeInput("en", 1)
		sess.PokeInput("engine_ready", 1)
		if err := sess.SetValueBreakpoint("pkt_count", 20, zoomie.BreakAny); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.RunUntilPaused(1 << 14); err != nil {
			b.Fatal(err)
		}
	}
}

// --- microbenchmarks on the substrate ---

func benchCounter() *zoomie.Design {
	m := zoomie.NewModule("bcounter")
	q := m.Output("q", 16)
	cnt := m.Reg("cnt", 16, "clk", 0)
	m.SetNext(cnt, zoomie.Add(zoomie.S(cnt), zoomie.C(1, 16)))
	m.Connect(q, zoomie.S(cnt))
	return zoomie.NewDesign("bcounter", m)
}

// manycoreSim builds the 64-core SoC simulator used by the simulation
// microbenchmarks, with an explicit engine selection.
func manycoreSim(b *testing.B, opts sim.Options) *sim.Simulator {
	b.Helper()
	f, err := rtl.Elaborate(workloads.ManycoreSoC(64))
	if err != nil {
		b.Fatal(err)
	}
	s, err := sim.NewWithOptions(f, []sim.ClockSpec{{Name: workloads.Clk, Period: 1}}, opts)
	if err != nil {
		b.Fatal(err)
	}
	s.Poke("en", 1)
	return s
}

// BenchmarkSimulatorManycoreTick measures raw cycle-simulation throughput
// on a 64-core SoC with the default engine (compiled bytecode + dirty-set
// incremental settling; see internal/sim).
func BenchmarkSimulatorManycoreTick(b *testing.B) {
	s := manycoreSim(b, sim.DefaultOptions)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick()
	}
}

// BenchmarkSimulatorManycoreTickInterp is the same workload on the
// reference tree-walking interpreter, for before/after comparison.
func BenchmarkSimulatorManycoreTickInterp(b *testing.B) {
	s := manycoreSim(b, sim.Options{Engine: sim.EngineInterp})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick()
	}
}

// BenchmarkSettleFull measures one full combinational settle sweep on the
// interpreter engine: every assign re-evaluated by tree-walking rtl.Eval.
func BenchmarkSettleFull(b *testing.B) {
	s := manycoreSim(b, sim.Options{Engine: sim.EngineInterp})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Settle()
	}
}

// BenchmarkEvalCompiled measures the same full sweep on the compiled
// engine (bytecode, pre-resolved slots): Settle sweeps every assign on
// either engine, isolating the expression evaluation speedup from the
// incremental-settling one.
func BenchmarkEvalCompiled(b *testing.B) {
	s := manycoreSim(b, sim.Options{Engine: sim.EngineCompiled})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Settle()
	}
}

// BenchmarkSettleDirty measures an incremental settle: toggling the `en`
// input dirties only its fanout cone, and only that cone is re-evaluated.
func BenchmarkSettleDirty(b *testing.B) {
	s := manycoreSim(b, sim.Options{Engine: sim.EngineCompiled})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Poke("en", uint64(i&1))
	}
}

// BenchmarkSnapshotRoundTrip measures full snapshot + restore through the
// frame plane.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	sess, err := zoomie.Debug(workloads.CohortAccel(false), zoomie.DebugConfig{})
	if err != nil {
		b.Fatal(err)
	}
	sess.PokeInput("en", 1)
	sess.PokeInput("n_items", 50)
	sess.Run(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := sess.Snapshot("dut")
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistorySeek measures the host time of a seek: the 48-core
// SoC, cores enabled, records 8,000 cycles, then every iteration seeks to
// a seeded cycle 10-7,010 cycles behind the tip. seek_us is the wall time
// per seek, from the cycle lookup and state reconstruction through the
// frame writes the simulator applies; the modeled cable time of the same
// seeks is zperf's timetravel_local.
func BenchmarkHistorySeek(b *testing.B) {
	sess, err := zoomie.Debug(workloads.ManycoreSoC(48), zoomie.DebugConfig{
		History: &zoomie.HistoryConfig{MaxKeyframes: 256},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	if err := sess.PokeInput("en", 1); err != nil {
		b.Fatal(err)
	}
	sess.Run(8000)
	if err := sess.Pause(); err != nil {
		b.Fatal(err)
	}
	tip, err := sess.Cycles()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Seek(tip - 10 - uint64(rng.Intn(7001))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "seek_us")
}

// BenchmarkHistoryLoadState measures the host time of a loadstate: the
// 48-core SoC, cores enabled, saves a state every 1,000 of 8,000
// recorded cycles, then every iteration loads a seeded one of the eight.
// load_us is the wall time per load.
func BenchmarkHistoryLoadState(b *testing.B) {
	sess, err := zoomie.Debug(workloads.ManycoreSoC(48), zoomie.DebugConfig{
		History: &zoomie.HistoryConfig{MaxKeyframes: 256},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	if err := sess.PokeInput("en", 1); err != nil {
		b.Fatal(err)
	}
	if err := sess.Pause(); err != nil {
		b.Fatal(err)
	}
	names := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	for _, name := range names {
		if err := sess.Step(1000); err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := sess.SaveState(name); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.LoadState(names[rng.Intn(len(names))]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "load_us")
}

// BenchmarkSVAMonitorCompile measures assertion-to-FSM compilation.
func BenchmarkSVAMonitorCompile(b *testing.B) {
	widths := sva.ArianeSignalWidths()
	src := "wb_window: assert property (@(posedge clk) disable iff (!resetn) issue_valid && issue_ack |-> ##[1:3] wb_valid);"
	for i := 0; i < b.N; i++ {
		a, err := sva.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sva.Compile(a, "m", "clk", widths); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchicalSynthesis measures netlist mapping throughput with
// module deduplication (cells/op reported by -benchmem's ns/op).
func BenchmarkHierarchicalSynthesis(b *testing.B) {
	d := workloads.ManycoreSoC(benchCores)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Synthesize(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacement measures partition-aware placement.
func BenchmarkPlacement(b *testing.B) {
	net, err := synth.Synthesize(workloads.ManycoreSoC(benchCores))
	if err != nil {
		b.Fatal(err)
	}
	specs := []place.PartitionSpec{{Name: "mut", Paths: []string{workloads.ClusterPath(0)}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.Place(net, fpga.NewU200(), specs); err != nil {
			b.Fatal(err)
		}
	}
}
