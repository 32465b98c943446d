package sim

import (
	"fmt"
	"io"
	"strings"
)

// WriteVCD emits the waveform as a Value Change Dump, the interchange
// waveform format every RTL viewer reads. One timestep per sample; only
// changing signals are emitted per step, per the format.
func (w *Waveform) WriteVCD(out io.Writer, timescale string) error {
	if timescale == "" {
		timescale = "1ns"
	}
	var b strings.Builder
	b.WriteString("$version zoomie step trace $end\n")
	fmt.Fprintf(&b, "$timescale %s $end\n", timescale)
	b.WriteString("$scope module dut $end\n")
	ids := make([]string, len(w.Signals))
	for i, name := range w.Signals {
		ids[i] = vcdID(i)
		fmt.Fprintf(&b, "$var wire %d %s %s $end\n", w.Widths[i], ids[i], strings.ReplaceAll(name, ".", "_"))
	}
	b.WriteString("$upscope $end\n$enddefinitions $end\n")
	prev := make([]uint64, len(w.Signals))
	for step, row := range w.Rows {
		emitted := false
		for i, v := range row {
			if step != 0 && v == prev[i] {
				continue
			}
			if !emitted {
				fmt.Fprintf(&b, "#%d\n", step)
				emitted = true
			}
			if w.Widths[i] == 1 {
				fmt.Fprintf(&b, "%d%s\n", v&1, ids[i])
			} else {
				fmt.Fprintf(&b, "b%b %s\n", v, ids[i])
			}
		}
		copy(prev, row)
	}
	fmt.Fprintf(&b, "#%d\n", len(w.Rows))
	_, err := io.WriteString(out, b.String())
	return err
}

// vcdID assigns the compact printable identifiers the format uses.
func vcdID(i int) string {
	const alphabet = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
	if i < len(alphabet) {
		return string(alphabet[i])
	}
	return string(alphabet[i%len(alphabet)]) + vcdID(i/len(alphabet)-1)
}
