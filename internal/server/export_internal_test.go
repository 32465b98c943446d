package server

import (
	"strings"
	"testing"

	"zoomie"
)

// TestExportRefusesOversizedState pins the export size refusal: a state
// whose encoded blob could not travel in one frame is refused before it
// is chunked, and a state under the cap decodes back from its chunks.
func TestExportRefusesOversizedState(t *testing.T) {
	snap := &zoomie.DebugSnapshot{Cycle: 7}
	if _, err := encodeExport(snap, make([]byte, 4<<20)); err == nil ||
		!strings.Contains(err.Error(), "too large to export") {
		t.Fatalf("oversized export: %v, want a too-large refusal", err)
	}
	lines, err := encodeExport(snap, make([]byte, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := decodeExport(lines)
	if err != nil || blob.Snapshot.Cycle != 7 || len(blob.History) != 1<<20 {
		t.Fatalf("round trip: %v", err)
	}
}
