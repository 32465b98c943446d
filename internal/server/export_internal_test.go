package server

import (
	"reflect"
	"strings"
	"testing"

	"zoomie"
	"zoomie/internal/workloads"
)

// TestExportRefusesOversizedState pins the export size refusal: a state
// whose raw blob could not travel in one frame is refused, a state just
// under the cap is not, and the snapshot decodes back from its blob.
func TestExportRefusesOversizedState(t *testing.T) {
	snap := &zoomie.DebugSnapshot{Cycle: 7, Regs: map[string]uint64{"q": 3, "cnt": 9},
		Mems: map[string][]uint64{"scratch": {1, 2, 3}}}
	if _, err := encodeExport(snap, make([]byte, 6<<20)); err == nil ||
		!strings.Contains(err.Error(), "too large to export") {
		t.Fatalf("oversized export: %v, want a too-large refusal", err)
	}
	blob, err := encodeExport(snap, make([]byte, 6<<20-64))
	if err != nil {
		t.Fatalf("export just under the cap: %v", err)
	}
	if len(blob) > maxExportBytes {
		t.Fatalf("accepted a %d-byte export, cap %d", len(blob), maxExportBytes)
	}
	if blob, err = encodeExport(snap, nil); err != nil {
		t.Fatal(err)
	}
	got, hist, err := decodeExport(blob)
	if err != nil || hist != nil || !reflect.DeepEqual(got, snap) {
		t.Fatalf("round trip: %+v, history %v, %v", got, hist, err)
	}
}

// TestExportFitsSoCAfter2048Cycles pins what raw-byte exports buy: the
// 48-core SoC's state after 2,048 recorded cycles (a 5.1 MB history)
// exports under the cap and imports back, where a base64 JSON envelope
// grew it to 9.3 MB and was refused.
func TestExportFitsSoCAfter2048Cycles(t *testing.T) {
	sess, err := zoomie.Debug(workloads.ManycoreSoC(48), zoomie.DebugConfig{Watches: []string{"checksum"}})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.PokeInput("en", 1); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(2048); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot("")
	if err != nil {
		t.Fatal(err)
	}
	hist := sess.EncodeHistory()
	blob, err := encodeExport(snap, hist)
	if err != nil {
		t.Fatalf("%d-byte history: %v", len(hist), err)
	}
	got, eng, err := decodeExport(blob)
	if err != nil || eng == nil || !reflect.DeepEqual(got, snap) {
		t.Fatalf("import of a %d-byte export: %v", len(blob), err)
	}
}

// FuzzDecodeExport hardens the state-import envelope: arbitrary bytes
// must decode to an error or to a snapshot that exports and decodes back
// unchanged, never panic. Seeds are a bare snapshot and a counter
// session's export with its recorded history.
func FuzzDecodeExport(f *testing.F) {
	snap := &zoomie.DebugSnapshot{Cycle: 7, Regs: map[string]uint64{"q": 3}, Mems: map[string][]uint64{"m": {1, 2}}}
	blob, err := encodeExport(snap, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	zs, err := NewCatalogSession("counter", nil)
	if err != nil {
		f.Fatal(err)
	}
	defer zs.Close()
	if err := zs.Step(20); err != nil {
		f.Fatal(err)
	}
	if snap, err = zs.Snapshot(""); err != nil {
		f.Fatal(err)
	}
	if blob, err = encodeExport(snap, zs.EncodeHistory()); err != nil {
		f.Fatal(err)
	}
	f.Add(blob)

	f.Fuzz(func(t *testing.T, blob []byte) {
		snap, _, err := decodeExport(blob)
		if err != nil {
			return
		}
		again, err := encodeExport(snap, nil)
		if err != nil {
			t.Fatalf("a decoded snapshot does not export: %v", err)
		}
		back, _, err := decodeExport(again)
		if err != nil || !reflect.DeepEqual(back, snap) {
			t.Fatalf("snapshot changed across a round trip: %v", err)
		}
	})
}

// DecodeExport exposes decodeExport to the package's external tests.
var DecodeExport = decodeExport
