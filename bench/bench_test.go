package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the metric
// catalog in step: same workloads and reasons, and every declared metric
// with the catalog's unit, direction and bound.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := readBenchmarkFile(t)
	var want strings.Builder
	fmt.Fprintln(&want, "workloads:")
	for _, w := range benchWorkloads {
		fmt.Fprintf(&want, "  %s: %s\n", w.name, w.why)
	}
	fmt.Fprintln(&want, "end_to_end:")
	for _, d := range contractMetrics(false) {
		fmt.Fprintf(&want, "  %s %s %s %g\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Fprintln(&want, "per_layer:")
	for _, d := range contractMetrics(true) {
		fmt.Fprintf(&want, "  %s %s %s\n", d.Name, d.Unit, d.Better)
	}
	var got strings.Builder
	fmt.Fprintln(&got, "workloads:")
	for _, w := range f.Workloads {
		fmt.Fprintf(&got, "  %s: %s\n", w.Name, w.Why)
	}
	fmt.Fprintln(&got, "end_to_end:")
	for _, d := range f.EndToEnd {
		fmt.Fprintf(&got, "  %s %s %s %g\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Fprintln(&got, "per_layer:")
	for _, d := range f.PerLayer {
		fmt.Fprintf(&got, "  %s %s %s\n", d.Name, d.Unit, d.Better)
	}
	if got.String() != want.String() {
		t.Errorf("BENCHMARK.json disagrees with the catalog.\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
}

// runLine runs zperf in-process and returns its parsed result line.
func runLine(t *testing.T, args ...string) (resultOut, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("zperf %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("zperf %v: last line: %v", args, err)
	}
	return out, stderr.String()
}

type resultOut struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// timingDependent are count and modeled metrics whose value depends on
// thread timing even at a fixed op count: which of two submitters reaches
// the farm and its checkpoint store first, and how many allocations the
// runtime makes.
var timingDependent = map[string]bool{
	"farm.hit_ratio": true, "farm.shared_ratio": true, "synth.store_hit_ratio": true,
	"synth.cells_synthesized_per_op": true, "synth.modeled_s_per_op": true,
	"wire.allocs_per_op": true,
}

// TestSmoke runs every workload at a tiny op count: every declared metric
// is printed with its unit, no op fails, and the modeled and count
// metrics repeat exactly for the same seed.
func TestSmoke(t *testing.T) {
	n := setupRepeats
	t.Cleanup(func() { setupRepeats = n })
	setupRepeats = 1
	f := readBenchmarkFile(t)
	dir := t.TempDir()
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			out := filepath.Join(dir, w.name+".jsonl")
			args := []string{"-workload", w.name, "-seed", "7", "-seconds", "0", "-ops", "8", "-tracedir", dir}
			plain, stderr := runLine(t, args...)
			traced, _ := runLine(t, append(args, "-trace", "1", "-out", out)...)
			runLine(t, append(args, "-trace", "1", "-out", out)...)
			for _, r := range []resultOut{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("correct=%v failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, stderr)
				}
			}
			for _, d := range f.EndToEnd {
				if m, ok := plain.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("end-to-end metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
				}
			}
			for _, d := range f.PerLayer {
				if m, ok := traced.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
				}
			}
			if len(plain.Metrics) != len(f.EndToEnd) || len(traced.Metrics) != len(f.PerLayer) {
				t.Errorf("printed %d end-to-end and %d per-layer metrics, declared %d and %d",
					len(plain.Metrics), len(traced.Metrics), len(f.EndToEnd), len(f.PerLayer))
			}
			recs, err := readRecords(out)
			if err != nil || len(recs) != 2 {
				t.Fatalf("records: %d, %v", len(recs), err)
			}
			for name, v := range recs[0].Metrics {
				d := metricByName[name]
				if (d.Kind != kindCount && d.Kind != kindModeled) || timingDependent[name] || (d.Exact && !v.Exact) {
					continue
				}
				if w := recs[1].Metrics[name].Value; w != v.Value {
					t.Errorf("%s: %v then %v for the same seed", name, v.Value, w)
				}
			}
		})
	}
}

// TestScriptsFollowSeed checks that the op scripts are a function of the
// seed: equal seeds give equal scripts, different seeds different ones.
func TestScriptsFollowSeed(t *testing.T) {
	regs := make([]regInfo, 100)
	for i := range regs {
		regs[i] = regInfo{fmt.Sprintf("dut.r%d", i), 16}
	}
	debug := func(seed int64) string {
		s := newDebugScript(seed, 0, regs)
		var b strings.Builder
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&b, "%+v;", s.next())
		}
		return b.String()
	}
	farmTags := func(seed int64) string {
		s := newFarmScript(seed, 1)
		var b strings.Builder
		for i := 0; i < 16; i++ {
			fmt.Fprintf(&b, "%d;", s.next())
		}
		return b.String()
	}
	for name, gen := range map[string]func(int64) string{"debug": debug, "farm": farmTags} {
		if gen(1) != gen(1) {
			t.Errorf("%s script differs for equal seeds", name)
		}
		if gen(1) == gen(2) {
			t.Errorf("%s script is the same for seeds 1 and 2", name)
		}
	}
}
