package sim

import (
	"fmt"
	"strings"
)

// Waveform is a recorded waveform: one row of signal values per sample.
// A Tracer records one from a simulator tick by tick; the debugger
// reconstructs one by single-stepping a paused design and reading its
// registers back (dbg.TraceSteps), which is how the REPL's trace verb
// gets its rows, in-process and over the wire alike.
type Waveform struct {
	Signals []string
	Widths  []int
	Rows    [][]uint64
}

// Value returns the recorded value of signal name at sample index i.
func (w *Waveform) Value(i int, name string) (uint64, bool) {
	if i < 0 || i >= len(w.Rows) {
		return 0, false
	}
	for j, n := range w.Signals {
		if n == name {
			return w.Rows[i][j], true
		}
	}
	return 0, false
}

// Render draws an ASCII waveform, one line per signal. Single-bit signals
// render as rails (▔ for 1 and ▁ for 0); wider signals render hex values.
func (w *Waveform) Render() string {
	var b strings.Builder
	width := 0
	for _, n := range w.Signals {
		if len(n) > width {
			width = len(n)
		}
	}
	for j, n := range w.Signals {
		fmt.Fprintf(&b, "%-*s ", width, n)
		for _, row := range w.Rows {
			if w.Widths[j] == 1 {
				if row[j] != 0 {
					b.WriteString("▔▔")
				} else {
					b.WriteString("▁▁")
				}
			} else {
				fmt.Fprintf(&b, "%2x", row[j]&0xff)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Tracer records the values of selected signals every tick, producing the
// kind of waveform evidence used in the paper's Figure 3 discussion. It is
// deliberately small: Zoomie's thesis is that full-visibility readback
// replaces trace-everything ILA debugging, so the tracer exists for tests
// and demos, not as the primary debug path.
type Tracer struct {
	Waveform
	sim *Simulator
}

// NewTracer watches the named signals of the simulator.
func NewTracer(s *Simulator, signals ...string) (*Tracer, error) {
	t := &Tracer{sim: s, Waveform: Waveform{Signals: append([]string(nil), signals...)}}
	for _, n := range signals {
		sig := s.Lookup(n)
		if sig == nil {
			return nil, fmt.Errorf("sim: tracer: no signal %q", n)
		}
		t.Widths = append(t.Widths, sig.Width)
	}
	return t, nil
}

// Sample records the current value of every watched signal.
func (t *Tracer) Sample() {
	row := make([]uint64, len(t.Signals))
	for i, n := range t.Signals {
		row[i], _ = t.sim.Peek(n)
	}
	t.Rows = append(t.Rows, row)
}

// Step advances the simulator one tick and samples.
func (t *Tracer) Step() {
	t.sim.Tick()
	t.Sample()
}

// Len returns the number of samples recorded.
func (t *Tracer) Len() int { return len(t.Rows) }
