package zoomie_test

import (
	"strings"
	"testing"

	"zoomie"
	"zoomie/internal/bitstream"
)

// TestSeekToCursorWritesNoDesignFrameWithoutMemory is the memory-less
// sibling of TestSeekToCursorWritesNoDesignFrame. A seek rewrites the
// Debug Controller's registers, so the delta restore to the current cycle
// leaves every design frame unwritten only if the controller has frames
// to itself. No memory allocation closes the counter's register frame
// here: only the placer's rule that a frame never holds state of two
// top-level instances keeps dut.cnt out of the controller's frame.
func TestSeekToCursorWritesNoDesignFrameWithoutMemory(t *testing.T) {
	m := zoomie.NewModule("cursor_counter")
	q := m.Output("q", 16)
	cnt := m.Reg("cnt", 16, "clk", 0)
	m.SetNext(cnt, zoomie.Add(zoomie.S(cnt), zoomie.C(1, 16)))
	m.Connect(q, zoomie.S(cnt))
	inj := zoomie.NewFaultInjector(zoomie.FaultProfile{})
	sess, err := zoomie.Debug(zoomie.NewDesign("cursor_counter", m), zoomie.DebugConfig{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if len(sess.Image.Map.Mems) != 0 {
		t.Fatalf("the counter places %d memories, want none", len(sess.Image.Map.Mems))
	}
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(40); err != nil {
		t.Fatal(err)
	}
	cyc, err := sess.Cycles()
	if err != nil {
		t.Fatal(err)
	}
	log := &frameLog{Backend: inj}
	sess.Cable.Chain = bitstream.NewChain(log, bitstream.DefaultCostModel())
	if _, err := sess.Seek(cyc); err != nil {
		t.Fatal(err)
	}

	design := map[[2]int]bool{}
	for _, r := range sess.Image.Map.Regs {
		if strings.HasPrefix(r.Name, "dut.") {
			design[[2]int{r.Addr.SLR, r.Addr.Frame}] = true
		}
	}
	for _, w := range log.written {
		if design[w] {
			t.Errorf("seek to the current cycle wrote user-design frame %v", w)
		}
	}
	if len(log.written) == 0 {
		t.Error("seek wrote no frame; the controller's frame must be rewritten")
	}
	if c, _ := sess.Cycles(); c != cyc {
		t.Errorf("cycle after seek = %d, want %d", c, cyc)
	}
}
