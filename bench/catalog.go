package main

// Metric kinds. Wall and memory metrics are host measurements and carry
// run-to-run noise; modeled metrics are what the modeled hardware or
// toolchain would take; count metrics count work. Wall-clock and modeled
// time are never blended into one number.
const (
	kindWall    = "wall"
	kindModeled = "modeled"
	kindCount   = "count"
	kindMemory  = "memory"
)

// metricDef is one catalog entry. The catalog is the single source of
// truth for names, units, kinds, directions and bounds; BENCHMARK.json
// lists the entries that are neither Extra nor workload-specific, and
// bench_test.go checks that the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Kind   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer
	// metrics, which have none). Host-time and memory metrics get 0.25:
	// on the shared two-core VM the benchmark was calibrated on, the
	// interquartile range of ten runs reached 0.15 for some of them.
	Bound float64
	// Layer marks per-layer metrics, reported by the traced run.
	Layer bool
	// Extra marks metrics that exist only on some workloads. They appear
	// in the full run record (-out) and on stderr, not in BENCHMARK.json,
	// whose metrics every workload must report.
	Extra bool
	// Exact marks metrics computed over each client's first -ops ops from
	// deterministic quantities, so they repeat bit for bit for a seed on
	// any machine. A workload can declare one inexact (runResult.inexact).
	Exact bool
}

// catalog lists every metric the benchmark can report, end-to-end first.
var catalog = []metricDef{
	// End-to-end: what a debugger or compile-farm user sees.
	{Name: "setup_s", Unit: "s", Kind: kindWall, Better: "lower", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Bound: 0.25},
	{Name: "op_p90_us", Unit: "us", Kind: kindWall, Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Kind: kindWall, Better: "higher", Bound: 0.25},
	{Name: "modeled_ms_per_op", Unit: "ms", Kind: kindModeled, Better: "lower", Bound: 0.10, Exact: true},
	{Name: "heap_live_mb", Unit: "MB", Kind: kindMemory, Better: "lower", Bound: 0.25},

	// End-to-end metrics that only some workloads have.
	{Name: "op_p99_us", Unit: "us", Kind: kindWall, Better: "lower", Bound: 0.25, Extra: true},
	{Name: "op_samples", Unit: "count", Kind: kindCount, Better: "higher", Extra: true},
	{Name: "sim_cycles_per_s", Unit: "1/s", Kind: kindWall, Better: "higher", Bound: 0.25, Extra: true},
	{Name: "failover_stall_p50_ms", Unit: "ms", Kind: kindWall, Better: "lower", Bound: 0.25, Extra: true},
	{Name: "error_rate", Unit: "ratio", Kind: kindCount, Better: "lower", Extra: true},
	{Name: "rss_peak_mb", Unit: "MB", Kind: kindMemory, Better: "lower", Bound: 0.25, Extra: true},

	// client: the wire client library, timed around its calls.
	{Name: "client.call_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "client.self_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},

	// wire: the v3 codec, re-run on the frames the traced conn captured.
	{Name: "wire.encode_ns_per_op", Unit: "ns", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "wire.decode_ns_per_op", Unit: "ns", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "wire.bytes_per_op", Unit: "B", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "wire.allocs_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},

	// server: zoomied (or, on fleet_failover, the daemon behind zfleet).
	{Name: "server.residency_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "server.overhead_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "server.replay_hits", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "server.migrations", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},

	// fleet: the zfleet coordinator.
	{Name: "fleet.forward_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "fleet.daemon_link_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "fleet.self_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "fleet.failovers", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "fleet.failover_mean_ms", Unit: "ms", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "fleet.checkpoints_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "fleet.journal_replays", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},

	// zoomie: the in-process facade, timed on the twin replay.
	{Name: "zoomie.self_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "zoomie.peek_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "zoomie.peekbatch_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "zoomie.poke_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "zoomie.step_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "zoomie.seek_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "zoomie.rewind_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "zoomie.loadstate_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "zoomie.run_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},

	// dbg: frame plans, snapshots and restores.
	{Name: "dbg.readbacks_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true, Exact: true},
	{Name: "dbg.writebacks_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true, Exact: true},
	{Name: "dbg.snapshot_full_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "dbg.restore_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},

	// jtag: the (guarded) cable transport.
	{Name: "jtag.readback_us_per_frame", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "jtag.writeback_us_per_frame", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "jtag.retries_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "jtag.rereads_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "jtag.rewrites_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "jtag.useful_frame_ratio", Unit: "ratio", Kind: kindCount, Better: "higher", Layer: true},

	// bitstream: the configuration µc chain and its cost model.
	{Name: "bitstream.frames_read_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "bitstream.frames_written_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "bitstream.hops_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "bitstream.commands_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "bitstream.frame_ms_per_op", Unit: "ms", Kind: kindModeled, Better: "lower", Layer: true},
	{Name: "bitstream.hop_ms_per_op", Unit: "ms", Kind: kindModeled, Better: "lower", Layer: true},
	{Name: "bitstream.command_ms_per_op", Unit: "ms", Kind: kindModeled, Better: "lower", Layer: true},

	// fpga: the device model's frame (de)serialization.
	{Name: "fpga.read_frame_ns", Unit: "ns", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "fpga.write_frame_ns", Unit: "ns", Kind: kindWall, Better: "lower", Layer: true},

	// sim and history: the cycle simulator and the time-travel engine.
	{Name: "sim.tick_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "history.record_overhead", Unit: "ratio", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "history.reconstruct_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},

	// faults: the chaos injector (context for chaos_remote).
	{Name: "faults.injected_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},

	// Compile: the farm and the VTI phases behind it.
	{Name: "farm.self_p50_us", Unit: "us", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "farm.hit_ratio", Unit: "ratio", Kind: kindCount, Better: "higher", Layer: true},
	{Name: "farm.shared_ratio", Unit: "ratio", Kind: kindCount, Better: "higher", Layer: true},
	{Name: "synth.store_hit_ratio", Unit: "ratio", Kind: kindCount, Better: "higher", Layer: true},
	{Name: "synth.cells_synthesized_per_op", Unit: "count", Kind: kindCount, Better: "lower", Layer: true},
	{Name: "synth.wall_ms_per_op", Unit: "ms", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "place.wall_ms_per_op", Unit: "ms", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "route.wall_ms_per_op", Unit: "ms", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "timing.wall_ms_per_op", Unit: "ms", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "bitgen.wall_ms_per_op", Unit: "ms", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "link.wall_ms_per_op", Unit: "ms", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "synth.modeled_s_per_op", Unit: "s", Kind: kindModeled, Better: "lower", Layer: true},
	{Name: "place.modeled_s_per_op", Unit: "s", Kind: kindModeled, Better: "lower", Layer: true, Exact: true},
	{Name: "route.modeled_s_per_op", Unit: "s", Kind: kindModeled, Better: "lower", Layer: true, Exact: true},
	{Name: "timing.modeled_s_per_op", Unit: "s", Kind: kindModeled, Better: "lower", Layer: true, Exact: true},
	{Name: "bitgen.modeled_s_per_op", Unit: "s", Kind: kindModeled, Better: "lower", Layer: true, Exact: true},
	{Name: "link.modeled_s_per_op", Unit: "s", Kind: kindModeled, Better: "lower", Layer: true, Exact: true},

	// The trace itself.
	{Name: "trace_overhead", Unit: "ratio", Kind: kindWall, Better: "lower", Layer: true},
	{Name: "trace.selfsum_ratio", Unit: "ratio", Kind: kindWall, Better: "lower", Layer: true, Extra: true},
}

// metricByName and catalogOrder index the catalog.
var (
	metricByName = map[string]metricDef{}
	catalogOrder = map[string]int{}
)

func init() {
	for i, d := range catalog {
		metricByName[d.Name] = d
		catalogOrder[d.Name] = i
	}
}

// contractMetrics returns the metrics the last output line carries: every
// end-to-end metric (untraced run) or every per-layer metric (traced run)
// that BENCHMARK.json declares.
func contractMetrics(trace bool) []metricDef {
	var out []metricDef
	for _, d := range catalog {
		if d.Layer == trace && !d.Extra {
			out = append(out, d)
		}
	}
	return out
}
