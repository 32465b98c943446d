// Command zperf is the repository's benchmark: one program that drives
// the debug and compile paths through their public APIs and reports
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
//
//	go run . -workload peek_remote -seed 1            # from bench/
//	go run . -workload all -seed 1 -trace
//	go run . -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; stderr carries a human-readable
// report. See README.md for the workloads, metrics and prediction map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// runConfig is one run's settings, straight from the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	ops      int // per-client prefix over which exact metrics are taken
	clients  int
	traceDir string
}

// runResult is what a workload measured.
type runResult struct {
	attempted, failed int64
	metrics           map[string]float64
	// inexact names catalog-exact metrics this workload cannot repeat
	// exactly (fleet_failover's modeled time, for one, depends on when
	// kills land).
	inexact map[string]bool
	notes   []string // extra stderr report lines
}

func newResult() *runResult {
	return &runResult{metrics: map[string]float64{}, inexact: map[string]bool{}}
}

func (r *runResult) set(name string, v float64) {
	if _, ok := metricByName[name]; !ok {
		panic("zperf: metric not in catalog: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = v
}

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	why  string
	ops  int // default -ops
	run  func(cfg runConfig) (*runResult, error)
}

// benchWorkloads is the workload table; BENCHMARK.json lists the same
// names and reasons.
var benchWorkloads = []workloadDef{
	{"peek_remote", "interactive debug of a paused design over wire v3: the readback-heavy hot path through client, wire, server and an unguarded cable", 4000, runPeekRemote},
	{"chaos_remote", "the same traffic under injected link faults: guarded jtag retries plus the server's per-op known-good snapshot", 150, runChaosRemote},
	{"timetravel_local", "in-process time travel: runs with recording on, then seek, rewind and loadstate through the writeback-heavy restore path", 200, runTimeTravel},
	{"fleet_failover", "peek_remote's mix through zfleet while the victim's daemon is killed every ~400 ms: forwarding, checkpoints, failover", 1000, runFleetFailover},
	{"recompile_farm", "two clients recompiling seeded debug edits on the compile farm: synth/place/route/timing/bitgen, cache hits and sharing", 24, runRecompileFarm},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for the op scripts and fault schedules")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "minimum measured window in seconds")
	fs.BoolVar(&cfg.trace, "trace", false, "traced run: report per-layer metrics and write trace_<workload>.json")
	fs.IntVar(&cfg.ops, "ops", 0, "ops per client over which exact metrics are taken; the window also lasts at least this long (0 = workload default)")
	fs.IntVar(&cfg.clients, "clients", 2, "load connections for the multi-client workloads (1 or 2)")
	fs.StringVar(&cfg.traceDir, "tracedir", ".bench_build", "directory for trace_<workload>.json")
	out := fs.String("out", "", "append the full run record as one JSON line to this file")
	commit := fs.String("commit", "", "commit recorded in the -out record")
	compare := fs.Bool("compare", false, "compare two record files given as arguments")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "zperf: -compare needs two record files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "zperf:", err)
			return 1
		}
		return 0
	}
	if cfg.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	w, ok := findWorkload(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "zperf: unknown workload %q (have: %s, all)\n", cfg.workload, workloadNames())
		return 2
	}
	if cfg.clients < 1 || cfg.clients > 2 {
		fmt.Fprintln(stderr, "zperf: -clients must be 1 or 2")
		return 2
	}
	if cfg.ops <= 0 {
		cfg.ops = w.ops
	}

	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "zperf: %s: %v\n", cfg.workload, err)
		return 1
	}
	if !cfg.trace {
		res.set("rss_peak_mb", peakRSSMB())
	}
	rec := newRecord(cfg, *commit, res)
	report(stderr, rec, res)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "zperf:", err)
			return 1
		}
	}
	line, err := resultLine(cfg.trace, res)
	if err != nil {
		fmt.Fprintln(stderr, "zperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// normalizeArgs accepts "-trace 0" / "--trace 1" (the driver's spelling)
// alongside the boolean "-trace".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, "-trace="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

func workloadNames() string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runAll runs every workload in a fresh process of its own.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "zperf:", err)
		return 1
	}
	status := 0
	for _, w := range benchWorkloads {
		child := replaceWorkload(normalizeArgs(args), w.name)
		cmd := exec.Command(exe, child...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "zperf: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

func replaceWorkload(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		switch a := args[i]; {
		case a == "-workload" || a == "--workload":
			i++
		case strings.HasPrefix(a, "-workload=") || strings.HasPrefix(a, "--workload="):
		default:
			out = append(out, a)
		}
	}
	return append(out, "-workload", name)
}

// recValue is one metric in a full run record.
type recValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"`
	Exact bool    `json:"exact,omitempty"`
}

// record is the full result of one run, as -out stores it and -compare
// reads it.
type record struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     bool                `json:"trace"`
	Seconds   float64             `json:"seconds"`
	Ops       int                 `json:"ops"`
	Clients   int                 `json:"clients"`
	Commit    string              `json:"commit,omitempty"`
	CPU       string              `json:"cpu"`
	NProc     int                 `json:"nproc"`
	GoVersion string              `json:"go"`
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]recValue `json:"metrics"`
}

func newRecord(cfg runConfig, commit string, res *runResult) record {
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Ops: cfg.ops, Clients: cfg.clients, Commit: commit,
		CPU: cpuModel(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]recValue, len(res.metrics)),
	}
	for name, v := range res.metrics {
		d := metricByName[name]
		rec.Metrics[name] = recValue{Value: v, Unit: d.Unit, Kind: d.Kind, Exact: d.Exact && !res.inexact[name]}
	}
	return rec
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine renders the contract line: exactly the declared metrics of
// the run's kind, each with its unit.
func resultLine(trace bool, res *runResult) (string, error) {
	type lineValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]lineValue)
	for _, d := range contractMetrics(trace) {
		metrics[d.Name] = lineValue{Value: res.metrics[d.Name], Unit: d.Unit}
	}
	if res.attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]lineValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	return string(b), err
}

// report prints the human-readable summary to stderr.
func report(w io.Writer, rec record, res *runResult) {
	mode := "untraced"
	if rec.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "zperf %s seed=%d %s: attempted=%d failed=%d correct=%v (%s, nproc=%d, %s)\n",
		rec.Workload, rec.Seed, mode, rec.Attempted, rec.Failed, rec.Correct, rec.CPU, rec.NProc, rec.GoVersion)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return catalogOrder[names[i]] < catalogOrder[names[j]] })
	for _, n := range names {
		v := rec.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %s\n", n, v.Value, v.Unit, v.Kind)
	}
	for _, l := range res.notes {
		fmt.Fprintln(w, "  "+l)
	}
}

// liveHeapMB collects garbage and returns the live heap in MB: what the
// process holds at this moment. Unlike the resident set's high-water mark
// it does not depend on where in a collection cycle the process peaked.
// It stops the caller for one collection, once per run.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// window is the measured interval shared by a run's load goroutines: it
// lasts at least cfg.seconds and until every client has issued cfg.ops
// ops. In a traced run each client alternates untraced and traced blocks
// of ops, so the trace overhead is measured against the same setup and
// the set of traced ops is a function of the seed.
type window struct {
	start   time.Time
	seconds float64
	ops     int
	trace   bool
	block   int

	// heapLeft counts the clients still short of -ops ops; the one that
	// brings it to zero records heapMB.
	heapLeft atomic.Int32
	heapMB   float64
}

// newWindow starts a window whose trace blocks are blockOps ops long
// (shorter when -ops is tiny, so a short traced run still traces).
func newWindow(cfg runConfig, blockOps int) *window {
	b := min(blockOps, cfg.ops/2)
	return &window{start: time.Now(), seconds: cfg.seconds, ops: cfg.ops, trace: cfg.trace, block: max(b, 1)}
}

// measureHeap makes the window record the live heap (heap_live_mb) once
// each of its clients has finished -ops ops: the same work on every
// machine, so the number depends on the seed, not on how far a run got.
func (w *window) measureHeap(clients int) { w.heapLeft.Store(int32(clients)) }

// finished notes that a client finished its op i.
func (w *window) finished(i int) {
	if i+1 == w.ops && w.heapLeft.Add(-1) == 0 {
		w.heapMB = liveHeapMB()
	}
}

// done reports whether a client that has issued n ops should stop.
func (w *window) done(n int) bool {
	return n >= w.ops && time.Since(w.start).Seconds() >= w.seconds
}

// traced reports whether a client's op i falls in a traced block.
func (w *window) traced(i int) bool {
	return w.trace && (i/w.block)%2 == 1
}

func (w *window) elapsed() time.Duration { return time.Since(w.start) }

// setupRepeats is how many times a run sets its system up; setup_s is the
// median, and the last setup is the one measured.
var setupRepeats = 15
