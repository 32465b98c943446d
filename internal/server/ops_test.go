package server

import (
	"context"
	"reflect"
	"testing"

	"zoomie/internal/wire"
)

// tableSamples holds a sample request for every op in the table, plus a
// failing one wherever the op can fail, in an order that drives a
// counter session through every family: clock control, breakpoints,
// state access, snapshots, tracing, ports, time travel and export.
var tableSamples = []*wire.Request{
	{Op: wire.OpSessStat},
	{Op: wire.OpPause},
	{Op: wire.OpRun, N: 10},
	{Op: wire.OpStep, N: 5},
	{Op: wire.OpStep, N: 0},
	{Op: wire.OpUntil, N: 0},
	{Op: wire.OpBreak, Name: "q", Value: 40, Mode: "any"},
	{Op: wire.OpBreak, Name: "cnt", Value: 1},
	{Op: wire.OpResume},
	{Op: wire.OpUntil, N: 1000},
	{Op: wire.OpClearBrk},
	{Op: wire.OpAssert, Name: "nosuchassert", Enable: true},
	{Op: wire.OpPeek, Name: "cnt"},
	{Op: wire.OpPeek, Name: "nosuchreg"},
	{Op: wire.OpPoke, Name: "cnt", Value: 500},
	{Op: wire.OpPoke, Name: "cnt", Value: 1 << 20},
	{Op: wire.OpPeekMem, Name: "cnt", Addr: 0},
	{Op: wire.OpPokeMem, Name: "cnt", Addr: 0, Value: 1},
	{Op: wire.OpPeekBatch, Items: []wire.BatchItem{{Name: "cnt"}, {Name: "dut.cnt"}}},
	{Op: wire.OpPeekBatch, Items: []wire.BatchItem{{Name: "cnt"}, {Name: "nosuchreg"}}},
	{Op: wire.OpPokeBatch, Items: []wire.BatchItem{{Name: "cnt", Value: 7}}},
	{Op: wire.OpPokeBatch, Items: []wire.BatchItem{{Name: "nosuchreg", Value: 7}}},
	{Op: wire.OpSnapRest},
	{Op: wire.OpSnapSave},
	{Op: wire.OpStep, N: 3},
	{Op: wire.OpSnapRest},
	{Op: wire.OpInspect, Prefix: "dut"},
	{Op: wire.OpTrace, Signals: []string{"cnt"}, N: 4},
	{Op: wire.OpTrace, Signals: []string{"nosuchreg"}, N: 4},
	{Op: wire.OpInput, Name: "cnt", Value: 1},
	{Op: wire.OpOutput, Name: "q"},
	{Op: wire.OpOutput, Name: "nosuchport"},
	{Op: wire.OpHistSave, Name: "mark"},
	{Op: wire.OpStep, N: 20},
	{Op: wire.OpHistSeek, Value: 20},
	{Op: wire.OpHistSeek, Value: 1 << 30},
	{Op: wire.OpHistRewind, N: 5},
	{Op: wire.OpHistRewind, N: 1 << 30},
	{Op: wire.OpHistRevCont},
	{Op: wire.OpHistLoad, Name: "mark"},
	{Op: wire.OpHistLoad, Name: "nosuchstate"},
	{Op: wire.OpHistStat},
	{Op: wire.OpHistTimelines},
	{Op: wire.OpStateExport},
	{Op: wire.OpSessStat},
	// The compile ops, in samples whose answers do not depend on compile
	// timing: the bit-identity check runs synchronously, and nothing is
	// submitted to either farm, so the listing is empty on both.
	{Op: wire.OpCompileSubmit, Design: "counter", Mode: "check", N: 1},
	{Op: wire.OpCompileCancel, Value: 999},
	{Op: wire.OpCompileStatus},
	{Op: "nosuchop"},
}

// TestOpTableParity runs every sample through Local.Do on an in-process
// counter session and through a remote client.Session.Do on a zoomied's
// counter session, and requires the responses to match field for field,
// error codes and texts included; only the request ID, the session id
// and the modeled cable time (the daemon's pause-event check reads the
// board after clock-advancing ops) may differ. An op of the table or a
// compile op without a sample fails the test, so a new op cannot skip
// it.
func TestOpTableParity(t *testing.T) {
	covered := map[string]bool{}
	for _, req := range tableSamples {
		covered[req.Op] = true
	}
	all := []string{wire.OpCompileSubmit, wire.OpCompileStatus, wire.OpCompileCancel}
	for op := range ops {
		all = append(all, op)
	}
	for _, op := range all {
		if !covered[op] {
			t.Errorf("op %q has no sample in tableSamples", op)
		}
	}

	zs, err := NewCatalogSession("counter", nil)
	if err != nil {
		t.Fatal(err)
	}
	local := NewLocal(zs)
	defer local.Close()
	_, _, remote := attachCounter(t)

	ctx := context.Background()
	for i, sample := range tableSamples {
		lreq, rreq := *sample, *sample
		lresp, lerr := local.Do(ctx, &lreq)
		rresp, rerr := remote.Do(ctx, &rreq)
		if (lerr == nil) != (rerr == nil) {
			t.Fatalf("sample %d (%s): local err %v, remote err %v", i, sample.Op, lerr, rerr)
		}
		for _, r := range []*wire.Response{lresp, rresp} {
			r.ID, r.Session, r.ElapsedNS = 0, 0, 0
		}
		if !reflect.DeepEqual(lresp, rresp) {
			t.Errorf("sample %d (%s) diverges:\n local  %+v (err %+v)\n remote %+v (err %+v)",
				i, sample.Op, lresp, lresp.Err, rresp, rresp.Err)
		}
	}
}
