package history

import (
	"bytes"
	"testing"

	"zoomie/internal/sim"
)

// record drives the counter for n ticks with a couple of host writes so
// the blob exercises tick deltas, host records and keyframe rotation.
func record(t testing.TB, s *sim.Simulator, e *Engine, n int) {
	t.Helper()
	s.Poke("en", 1)
	for i := 0; i < n; i++ {
		s.Tick()
		if i == n/3 {
			s.Poke("cnt", 99)
		}
	}
}

// TestCodecRoundTrip encodes a live engine, decodes it, transplants the
// decoded copy onto a fresh simulator of the same design, and requires
// reconstruction, savestates and cursor bookkeeping to be bit-identical
// to the original.
func TestCodecRoundTrip(t *testing.T) {
	s := newSim(t)
	e := New(Config{KeyframeEvery: 8})
	e.Attach(s, "cyc")
	record(t, s, e, 50)
	if _, err := saveNamed(e, "mark"); err != nil {
		t.Fatal(err)
	}

	blob := e.Encode()
	if got := e.Encode(); !bytes.Equal(blob, got) {
		t.Fatal("Encode is not deterministic for an idle engine")
	}
	e2, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}

	// The decoded engine reconstructs identically before any transplant.
	for _, pos := range []uint64{10, 25, 50} {
		a, err := stateAt(e, pos)
		if err != nil {
			t.Fatalf("orig StateAt(%d): %v", pos, err)
		}
		b, err := stateAt(e2, pos)
		if err != nil {
			t.Fatalf("decoded StateAt(%d): %v", pos, err)
		}
		compareStates(t, pos, a, b)
	}
	ap, acy := e.Cursor()
	bp, bcy := e2.Cursor()
	if ap != bp || acy != bcy {
		t.Fatalf("cursor (%d,%d) != decoded (%d,%d)", ap, acy, bp, bcy)
	}
	if a, b := e.Stat(), e2.Stat(); a.Keyframes != b.Keyframes || a.DeltaBytes != b.DeltaBytes ||
		a.TipPos != b.TipPos || a.HorizonPos != b.HorizonPos || a.Timelines != b.Timelines {
		t.Fatalf("Stat mismatch: %+v vs %+v", a, b)
	}
	st, ok := namedState(e2, "mark")
	if !ok {
		t.Fatal("savestate lost in round trip")
	}
	orig, _ := namedState(e, "mark")
	compareStates(t, st.Pos, orig, st)

	// Transplant the decoded engine onto a fresh board and keep recording:
	// the lineage must extend seamlessly.
	s2 := newSim(t)
	if err := e2.Transplant(s2); err != nil {
		t.Fatal(err)
	}
	// Restore the tip state onto the new sim as host writes (the facade's
	// migration restore), then run forward.
	tip, err := stateAt(e2, bp)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range tip.Regs {
		s2.Poke(name, v)
	}
	for name, v := range tip.Inputs {
		s2.Poke(name, v)
	}
	for name, words := range tip.Mems {
		for i, v := range words {
			s2.PokeMem(name, i, v)
		}
	}
	for i := 0; i < 20; i++ {
		s2.Tick()
	}
	tp, _ := e2.Tip()
	if _, err := stateAt(e2, tp); err != nil {
		t.Fatalf("StateAt(tip) after transplant: %v", err)
	}
	// Pre-transplant history is still addressable through the blob'd ring.
	if _, err := stateAt(e2, 25); err != nil {
		t.Fatalf("StateAt(25) after transplant: %v", err)
	}
}

// TestCodecBranchTimelines round-trips a forked engine: rewind, diverge,
// then encode/decode and verify both branches survive with lineage.
func TestCodecBranchTimelines(t *testing.T) {
	s := newSim(t)
	e := New(Config{KeyframeEvery: 8})
	e.Attach(s, "cyc")
	record(t, s, e, 40)

	// Rewind the cursor and diverge: next tick forks a timeline.
	st, err := stateAt(e, 20)
	if err != nil {
		t.Fatal(err)
	}
	e.Suspend(true)
	for name, v := range st.Regs {
		s.Poke(name, v)
	}
	e.Suspend(false)
	e.SeekDone(20)
	for i := 0; i < 10; i++ {
		s.Tick()
	}
	if got := len(e.TimelineList()); got != 2 {
		t.Fatalf("timelines = %d, want 2", got)
	}

	e2, err := Decode(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	a, b := e.TimelineList(), e2.TimelineList()
	if len(a) != len(b) {
		t.Fatalf("decoded %d timelines, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timeline %d: %+v != %+v", i, a[i], b[i])
		}
	}
	ap, acy := e.Cursor()
	bp, bcy := e2.Cursor()
	if ap != bp || acy != bcy {
		t.Fatalf("cursor (%d,%d) != decoded (%d,%d)", ap, acy, bp, bcy)
	}
	sa, err := stateAt(e, ap)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := stateAt(e2, bp)
	if err != nil {
		t.Fatal(err)
	}
	compareStates(t, ap, sa, sb)
}

// TestCodecRejectsGarbage checks typed failures instead of panics on
// corrupt blobs.
func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode(nil) succeeded")
	}
	if _, err := Decode([]byte("nope")); err == nil {
		t.Fatal("Decode(garbage) succeeded")
	}
	s := newSim(t)
	e := New(Config{})
	e.Attach(s, "cyc")
	blob := e.Encode()
	for _, cut := range []int{5, len(blob) / 2, len(blob) - 1} {
		if _, err := Decode(blob[:cut]); err == nil {
			t.Fatalf("Decode(truncated at %d) succeeded", cut)
		}
	}
	if _, err := Decode(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("Decode(trailing byte) succeeded")
	}
}

func compareStates(t *testing.T, pos uint64, a, b *State) {
	t.Helper()
	if a.Pos != b.Pos || a.Cycle != b.Cycle {
		t.Fatalf("pos %d: (pos,cycle) (%d,%d) != (%d,%d)", pos, a.Pos, a.Cycle, b.Pos, b.Cycle)
	}
	if len(a.Regs) != len(b.Regs) || len(a.Inputs) != len(b.Inputs) || len(a.Mems) != len(b.Mems) {
		t.Fatalf("pos %d: shape mismatch", pos)
	}
	for k, v := range a.Regs {
		if b.Regs[k] != v {
			t.Fatalf("pos %d: reg %s = %#x, want %#x", pos, k, b.Regs[k], v)
		}
	}
	for k, v := range a.Inputs {
		if b.Inputs[k] != v {
			t.Fatalf("pos %d: input %s = %#x, want %#x", pos, k, b.Inputs[k], v)
		}
	}
	for k, v := range a.Mems {
		got := b.Mems[k]
		if len(got) != len(v) {
			t.Fatalf("pos %d: mem %s len %d, want %d", pos, k, len(got), len(v))
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("pos %d: mem %s[%d] = %#x, want %#x", pos, k, i, got[i], v[i])
			}
		}
	}
}

// hostileBlob records a short run and appends one host record to the
// current segment, tampered to name state the design does not have.
func hostileBlob(t testing.TB, rec []byte) []byte {
	s := newSim(t)
	e := New(Config{KeyframeEvery: 8})
	e.Attach(s, "cyc")
	record(t, s, e, 20)
	seg := e.cur.last()
	seg.buf = append(append(seg.buf, recHost), rec...)
	return e.Encode()
}

// TestDecodeRejectsRecordsOutsideLayout pins the import path's bounds: a
// blob whose delta records name a slot, a memory or a word address the
// layout and keyframes do not have must be refused by Decode or
// Transplant, before a reconstruction indexes it.
func TestDecodeRejectsRecordsOutsideLayout(t *testing.T) {
	for _, c := range []struct {
		name string
		rec  []byte // record body: registers, then memory words
	}{
		{"slot", []byte{1, 0xe8, 0x07, 5, 0}},    // slot 1000
		{"memory", []byte{0, 1, 7, 0, 5}},        // memory 7
		{"address", []byte{0, 1, 0, 0x80, 8, 5}}, // scratch[1024]
	} {
		e, err := Decode(hostileBlob(t, c.rec))
		if err == nil {
			err = e.Transplant(newSim(t))
		}
		if err == nil {
			t.Errorf("%s: a record outside the layout was accepted", c.name)
		}
	}
}
