package check

import (
	"context"
	"reflect"
	"testing"

	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// TestSeekMatchesFreshRun is the time-travel oracle: the state a session
// reconstructs by seeking back to cycle C must be bit-identical to the
// state of a fresh session paused at C — the full register and memory
// map, not a sample. It holds on the local stack and across the wire,
// with the same rendered state dump on both.
func TestSeekMatchesFreshRun(t *testing.T) {
	const c, overshoot = 37, 60

	f, err := newFleet(DefaultChaos(99))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	do := func(tg Target, req *wire.Request) *wire.Response {
		t.Helper()
		resp, err := tg.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		return resp
	}
	dump := func(tg Target) ([]string, uint64) {
		t.Helper()
		return do(tg, &wire.Request{Op: wire.OpInspect, Prefix: "dut"}).Lines,
			do(tg, &wire.Request{Op: wire.OpSessStat}).Cycles
	}

	for stack, mk := range map[string]func() (Target, error){
		"local": func() (Target, error) {
			s, err := server.NewCatalogSessionWith("counter", nil)
			if err != nil {
				return nil, err
			}
			return NewLocalTarget(s), nil
		},
		"remote": func() (Target, error) {
			s, err := attach(f.clean, "counter")
			if err != nil {
				return nil, err
			}
			return NewRemoteTarget(s), nil
		},
	} {
		// Recorded leg: run past C, then travel back.
		rec, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", stack, err)
		}
		do(rec, &wire.Request{Op: wire.OpPause})
		do(rec, &wire.Request{Op: wire.OpStep, N: c + overshoot})
		do(rec, &wire.Request{Op: wire.OpHistSeek, Value: c})
		seekLines, seekCyc := dump(rec)
		rec.Close()

		// Oracle leg: a fresh session paused at exactly C, no history
		// involved.
		fresh, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", stack, err)
		}
		do(fresh, &wire.Request{Op: wire.OpPause})
		do(fresh, &wire.Request{Op: wire.OpStep, N: c})
		freshLines, freshCyc := dump(fresh)
		fresh.Close()

		if seekCyc != c || freshCyc != c {
			t.Fatalf("%s: cycles seek=%d fresh=%d, want %d", stack, seekCyc, freshCyc, c)
		}
		if !reflect.DeepEqual(seekLines, freshLines) {
			t.Errorf("%s: state at cycle %d differs between seek and fresh run:\n--- seek ---\n%v\n--- fresh ---\n%v",
				stack, c, seekLines, freshLines)
		}
	}
}
