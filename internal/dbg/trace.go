package dbg

import (
	"context"
	"fmt"

	"zoomie/internal/dberr"
	"zoomie/internal/sim"
)

// TraceSteps single-steps the paused design `steps` times, reading the
// named registers through frame readback after every cycle (plus the
// initial state), and returns the waveform: one row per executed cycle.
// Any register of the design may be traced — the probe set is chosen at
// run time. This is the §7.7 capability — "printing of arbitrary signals
// at run time by single stepping without recompiling the design" — that
// an ILA can only offer for its compile-time probe list. Each cycle's
// samples come back in one planned readback, however many signals are
// traced.
func (d *Debugger) TraceSteps(signals []string, steps int) (*sim.Waveform, error) {
	return d.TraceStepsCtx(context.Background(), signals, steps)
}

// TraceStepsCtx is TraceSteps under a context.
func (d *Debugger) TraceStepsCtx(ctx context.Context, signals []string, steps int) (*sim.Waveform, error) {
	if paused, err := d.Paused(); err != nil {
		return nil, err
	} else if !paused {
		return nil, fmt.Errorf("dbg: step tracing requires a paused design")
	}
	tr := &sim.Waveform{Signals: append([]string(nil), signals...)}
	items := make([]PlanItem, len(signals))
	for i, s := range signals {
		flat, ok := d.resolve(s)
		if !ok {
			return nil, dberr.E(dberr.ErrUnknownState, "dbg: no state element %q", s)
		}
		loc, ok := d.Image.Map.Reg(flat)
		if !ok {
			return nil, dberr.E(dberr.ErrIsMemory, "dbg: %q is not a register", s)
		}
		tr.Widths = append(tr.Widths, loc.Width)
		items[i] = PlanItem{Name: s}
	}
	sample := func() error {
		row, err := d.ReadPlan(ctx, items)
		if err != nil {
			return err
		}
		tr.Rows = append(tr.Rows, row)
		return nil
	}
	if err := sample(); err != nil {
		return nil, err
	}
	for i := 0; i < steps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := d.Step(1); err != nil {
			return nil, err
		}
		if err := sample(); err != nil {
			return nil, err
		}
	}
	return tr, nil
}
