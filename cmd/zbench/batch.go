package main

import (
	"fmt"
	"time"

	"zoomie"
)

// batchExp measures what the frame-plan batching is worth: a 16-signal
// watchpoint sweep (step one cycle, sample every signal, repeat) driven
// once with one Peek per signal and once with one PeekBatch per sample.
// The planner dedupes the signals' frames and issues one coalesced
// readback per SLR, so a sample costs at most one cable transaction per
// chiplet. Per-signal peeks now cost the same: each finds the frame the
// step or an earlier peek already read. What the batch still saves is one
// facade call, or one round trip to a daemon, per sample instead of one
// per signal. Every sampled value is checked against the design's
// closed-form trajectory, in the clean runs and through a 1% guarded
// fault injector alike — batching must not trade away exactness.
func batchExp(int) error {
	header("Batch: frame-plan coalescing vs per-signal peeks (16-signal sweep)")
	const nsig = 16
	const rounds = 40
	names := make([]string, nsig)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
	}

	fmt.Printf("%-10s %-11s %7s %10s %10s %10s %9s %9s\n",
		"fault rate", "mode", "samples", "readbacks", "writebacks", "cable ms", "ops *", "speedup")
	for _, rate := range []float64{0, 0.01} {
		var baseCable time.Duration
		var baseOps int64
		for _, batched := range []bool{false, true} {
			sess, err := batchSession(rate)
			if err != nil {
				return err
			}
			if err := sess.Pause(); err != nil {
				return err
			}
			base, err := sweepSample(sess, names, batched)
			if err != nil {
				return err
			}
			for i := 1; i <= rounds; i++ {
				if err := sess.Step(1); err != nil {
					return fmt.Errorf("rate %g round %d: step: %w", rate, i, err)
				}
				vals, err := sweepSample(sess, names, batched)
				if err != nil {
					return fmt.Errorf("rate %g round %d: sample: %w", rate, i, err)
				}
				for j, v := range vals {
					want := (base[j] + uint64(i)*uint64(j+1)) & 0xFFFF
					if v != want {
						return fmt.Errorf("rate %g round %d: CORRUPTED READ: %s=%d want %d",
							rate, i, names[j], v, want)
					}
				}
			}
			cs := sess.Cable.Stats()
			cable := sess.Elapsed()
			ops := cs.Readbacks + cs.Writebacks
			mode, speedup := "per-signal", "baseline"
			if batched {
				mode = "batch"
				speedup = fmt.Sprintf("%.1fx (%.1fx ops)",
					float64(baseCable)/float64(cable), float64(baseOps)/float64(ops))
			} else {
				baseCable, baseOps = cable, ops
			}
			fmt.Printf("%-10g %-11s %7d %10d %10d %10.1f %9d %9s\n",
				rate, mode, rounds+1, cs.Readbacks, cs.Writebacks,
				float64(cable.Microseconds())/1000, ops, speedup)
			sess.Close()
		}
	}
	fmt.Println("\n* ops = logical readback + writeback cable transactions. A sample")
	fmt.Println("costs at most one readback per SLR holding a probed signal in either")
	fmt.Println("mode: the batch plans it, and per-signal peeks find frames that the")
	fmt.Println("step or an earlier peek already read. The batch saves one facade call")
	fmt.Println("(or daemon round trip) per sample instead of 16. Every value above was")
	fmt.Println("checked against the closed-form trajectory in both modes.")
	return nil
}

// batchSession compiles a 16-register design (r0..r15, register j
// stepping by j+1 each cycle) and attaches a debugger, optionally
// through a seeded 1% fault injector with the guarded transport.
func batchSession(rate float64) (*zoomie.Session, error) {
	m := zoomie.NewModule("sweep16")
	q := m.Output("q", 16)
	for i := 0; i < 16; i++ {
		r := m.Reg(fmt.Sprintf("r%d", i), 16, "clk", 0)
		m.SetNext(r, zoomie.Add(zoomie.S(r), zoomie.C(uint64(i+1), 16)))
		if i == 0 {
			m.Connect(q, zoomie.S(r))
		}
	}
	cfg := zoomie.DebugConfig{Watches: []string{"q"}}
	if rate > 0 {
		cfg.Faults = zoomie.NewFaultInjector(zoomie.FaultProfile{
			Seed: 42, ReadFlip: rate, WriteFlip: rate, Exec: rate / 2,
		})
		cfg.Guard = true
	}
	return zoomie.Debug(zoomie.NewDesign("sweep16", m), cfg)
}

func sweepSample(sess *zoomie.Session, names []string, batched bool) ([]uint64, error) {
	if batched {
		return sess.PeekBatch(names)
	}
	vals := make([]uint64, len(names))
	for i, n := range names {
		v, err := sess.Peek(n)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}
