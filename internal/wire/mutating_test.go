package wire_test

import (
	"testing"

	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// TestMutatingPinned pins server.Mutating, the op table's flag that the
// fleet journal and the daemon's known-good refresh share, for every op
// of the binary op table: exactly nine ops are read-only, and every
// other name, unknown ones included, counts as mutating.
func TestMutatingPinned(t *testing.T) {
	readOnly := map[string]bool{
		wire.OpPeek: true, wire.OpPeekMem: true, wire.OpPeekBatch: true, wire.OpOutput: true,
		wire.OpInspect: true, wire.OpSessStat: true, wire.OpHistStat: true,
		wire.OpHistTimelines: true, wire.OpStateExport: true,
	}
	for _, op := range append([]string{"", "nosuchop"}, wire.OpTable[1:]...) {
		if got := server.Mutating(op); got == readOnly[op] {
			t.Errorf("Mutating(%q) = %v, want %v", op, got, !readOnly[op])
		}
	}
}
