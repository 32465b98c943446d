package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads a file of run records, one JSON object per line (the
// format -out appends).
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// compareFiles prints, per workload and metric, each side's median and
// quartiles and the change of B's median against A's. A metric with a
// bound is "regressed" when B is worse by more than the bound and
// "unresolved" when either side's spread (interquartile range over
// median) exceeds it. Exact metrics are "changed" when the two sets, run
// with the same seeds, do not read identically; other metrics without a
// bound are informational ("-").
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	type key struct {
		workload string
		trace    bool
		metric   string
	}
	inexact := map[key]bool{}
	collect := func(recs []record) map[key][]float64 {
		m := map[key][]float64{}
		for _, r := range recs {
			for name, v := range r.Metrics {
				k := key{r.Workload, r.Trace, name}
				m[k] = append(m[k], v.Value)
				if !v.Exact {
					inexact[k] = true
				}
			}
		}
		return m
	}
	va, vb := collect(a), collect(b)
	var keys []key
	for k := range va {
		if _, ok := vb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if keys[i].trace != keys[j].trace {
			return !keys[i].trace
		}
		return catalogOrder[keys[i].metric] < catalogOrder[keys[j].metric]
	})
	fmt.Fprintf(w, "%-17s %-32s %12s %12s %12s | %12s %12s %12s | %8s %6s %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "delta", "bound", "verdict")
	worse := 0
	for _, k := range keys {
		d := metricByName[k.metric]
		a1, a2, a3 := quartiles(va[k])
		b1, b2, b3 := quartiles(vb[k])
		delta := 0.0
		if a2 != 0 {
			delta = (b2 - a2) / math.Abs(a2)
		}
		if d.Better == "higher" {
			delta = -delta // positive delta always means worse
		}
		verdict := "ok"
		switch {
		case !inexact[k]:
			if !sameValues(va[k], vb[k]) {
				verdict = "changed"
			}
		case d.Bound == 0:
			verdict = "-"
		case spread(a1, a2, a3) > d.Bound || spread(b1, b2, b3) > d.Bound:
			verdict = "unresolved"
		case delta > d.Bound:
			verdict = "regressed"
			worse++
		}
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.2f", d.Bound)
		}
		name := k.metric
		if k.trace {
			name += " (traced)"
		}
		fmt.Fprintf(w, "%-17s %-32s %12.5g %12.5g %12.5g | %12.5g %12.5g %12.5g | %+7.2f%% %6s %s\n",
			k.workload, name, a1, a2, a3, b1, b2, b3, 100*delta, bound, verdict)
	}
	fmt.Fprintf(w, "%d metric(s) regressed beyond their bound\n", worse)
	return nil
}

// spread is the interquartile range as a share of the median.
func spread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// sameValues reports whether two sets of runs read identically, run for
// run in sorted order.
func sameValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(a)
	sort.Float64s(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
