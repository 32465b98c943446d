package main

import (
	"fmt"
	"strings"
	"time"

	"zoomie"
	"zoomie/internal/dbg"
)

// sampleScope is the state whose frames the per-frame costs are sampled on.
const sampleScope = dbg.DutPrefix + ".tile0"

// sampleRepeats is how many times each sampled per-run cost is measured;
// the metric is the median.
const sampleRepeats = 5

// sampleMedian times f until it has succeeded sampleRepeats times and
// returns the median in µs. On a faulty link an attempt can fail for good
// (retries exhausted); such attempts are dropped, and only if none of
// 2*sampleRepeats attempts succeeds is the last error returned.
func sampleMedian(f func() error) (float64, error) {
	ts := make([]float64, 0, sampleRepeats)
	var err error
	for i := 0; i < 2*sampleRepeats && len(ts) < sampleRepeats; i++ {
		t0 := time.Now()
		if err = f(); err == nil {
			ts = append(ts, us(time.Since(t0)))
		}
	}
	if len(ts) == 0 {
		return 0, err
	}
	return median(ts), nil
}

// restorer times restores of a session's design state — the scope a
// seek writes — onto the same session, so its state does not change.
type restorer struct {
	s    *zoomie.Session
	snap *zoomie.DebugSnapshot
}

func newRestorer(s *zoomie.Session) (*restorer, error) {
	snap, err := s.Snapshot(dbg.DutPrefix)
	if err != nil {
		return nil, fmt.Errorf("sample snapshot: %w", err)
	}
	return &restorer{s, snap}, nil
}

// restore restores the snapshot and returns how long it took in µs.
func (r *restorer) restore() (float64, error) {
	t0 := time.Now()
	err := r.s.Restore(r.snap)
	return us(time.Since(t0)), err
}

// setSampledMetrics measures the per-run costs no single op exposes, on
// sessions like the ones the workload drives: a full-scope snapshot (what
// the server's known-good capture pays) and the per-frame cost of the
// cable's readback and writeback and of the device model's frame access,
// on link, a session on the workload's cable; and, unless clean is nil, a
// restore of the design's state on clean, a session on a clean cable,
// where a restore that large can complete. The per-frame costs use the
// frames of one cluster's state. Every write puts back the data just
// read, so neither session's state changes.
func setSampledMetrics(res *runResult, link, clean *zoomie.Session) error {
	snapUS, err := sampleMedian(func() error { _, err := link.Snapshot(""); return err })
	if err != nil {
		return fmt.Errorf("sample snapshot: %w", err)
	}
	res.set("dbg.snapshot_full_us", snapUS)
	if clean != nil {
		r, err := newRestorer(clean)
		if err != nil {
			return err
		}
		restoreUS, err := sampleMedian(func() error { _, err := r.restore(); return err })
		if err != nil {
			return fmt.Errorf("sample restore: %w", err)
		}
		res.set("dbg.restore_us", restoreUS)
	}

	names := map[string]bool{}
	for _, r := range link.Image.Map.Regs {
		if strings.HasPrefix(r.Name, sampleScope+".") {
			names[r.Name] = true
		}
	}
	perSLR := link.Image.Map.FramesTouched(names)
	frames := 0
	for _, fs := range perSLR {
		frames += len(fs)
	}
	if frames == 0 {
		return fmt.Errorf("sample: %s occupies no frames", sampleScope)
	}
	n := float64(frames)
	var data map[int][][]uint32
	rbUS, err := sampleMedian(func() error {
		data = map[int][][]uint32{}
		for slr, fs := range perSLR {
			d, err := link.Cable.ReadbackFrames(slr, fs)
			if err != nil {
				return err
			}
			data[slr] = d
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sample readback: %w", err)
	}
	wbUS, err := sampleMedian(func() error {
		for slr, fs := range perSLR {
			if err := link.Cable.WritebackFrames(slr, fs, data[slr]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sample writeback: %w", err)
	}
	// The device model's own frame access, below the cable.
	board := link.Cable.Board
	rdUS, err := sampleMedian(func() error {
		for slr, fs := range perSLR {
			for _, f := range fs {
				if _, err := board.ReadFrame(slr, f); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sample frame read: %w", err)
	}
	wrUS, err := sampleMedian(func() error {
		for slr, fs := range perSLR {
			for i, f := range fs {
				if err := board.WriteFrame(slr, f, data[slr][i]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("sample frame write: %w", err)
	}
	res.set("jtag.readback_us_per_frame", rbUS/n)
	res.set("jtag.writeback_us_per_frame", wbUS/n)
	res.set("fpga.read_frame_ns", rdUS*1e3/n)
	res.set("fpga.write_frame_ns", wrUS*1e3/n)
	return nil
}
