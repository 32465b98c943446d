package server_test

import (
	"context"
	"errors"
	"testing"

	"zoomie/internal/client"
	"zoomie/internal/dberr"
	"zoomie/internal/dbg"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// TestRemoteBatch drives the v2 batch ops end to end: one round trip
// reads several aliases of a register consistently, one round trip
// forces a value, and the typed dberr classification survives the wire —
// errors.Is gives the same answers as against a local Debugger, with the
// message text unchanged.
func TestRemoteBatch(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}

	if err := sess.PokeBatch([]dbg.PlanItem{{Name: "cnt", Value: 777}}); err != nil {
		t.Fatal(err)
	}
	vals, err := sess.PeekBatch([]dbg.PlanItem{{Name: "cnt"}, {Name: "dut.cnt"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 777 || vals[1] != 777 {
		t.Errorf("batched peek = %v, want [777 777]", vals)
	}

	// Typed errors across the wire.
	_, err = sess.PeekBatch([]dbg.PlanItem{{Name: "cnt"}, {Name: "nosuchreg"}})
	if !errors.Is(err, dberr.ErrUnknownState) {
		t.Errorf("remote unknown name: errors.Is(ErrUnknownState) = false for %v", err)
	}
	wantMsg := `dbg: no state element "nosuchreg" (wires are not state; read the registers feeding them)`
	if err == nil || err.Error() != wantMsg {
		t.Errorf("remote error text changed:\n got %q\nwant %q", err, wantMsg)
	}
	if _, err := sess.PeekMem("cnt", 0); !errors.Is(err, dberr.ErrIsRegister) {
		t.Errorf("remote PeekMem on register: errors.Is(ErrIsRegister) = false for %v", err)
	}
	if err := sess.PokeBatch([]dbg.PlanItem{{Name: "cnt", Value: 1 << 20}}); !errors.Is(err, dberr.ErrWidthMismatch) {
		t.Errorf("remote oversized poke: errors.Is(ErrWidthMismatch) = false for %v", err)
	}
}

// TestRemoteBatchCancellation: a context cancelled client-side aborts the
// wait promptly and classifies as context.Canceled, exactly like the
// local PeekBatchCtx.
func TestRemoteBatchCancellation(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sess.PeekBatchCtx(ctx, []dbg.PlanItem{{Name: "cnt"}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled remote batch returned %v, want context.Canceled", err)
	}
	if errors.Is(err, dberr.ErrPartialBatch) {
		t.Error("remote cancellation misclassified as a partial batch")
	}
	// The connection is still healthy after a cancellation.
	if v, err := sess.Peek("cnt"); err != nil {
		t.Fatalf("peek after cancellation: %v", err)
	} else if _, err := sess.PeekBatch([]dbg.PlanItem{{Name: "cnt"}}); err != nil {
		t.Fatalf("batch after cancellation: %v (peek said %d)", err, v)
	}
}

// TestPreCancelledCallNeverSent pins the client's rule for a call whose
// context is already done, the cable's rule too: it fails with
// CodeCancelled, which errors.Is still matches as context.Canceled,
// without reaching the wire. The server serves no command for it, so no
// reply can race the cancellation.
func TestPreCancelledCallNeverSent(t *testing.T) {
	srv, addr := startServer(t, server.Config{PoolSize: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	served := srv.Stats().CommandsServed
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		_, err := sess.PeekBatchCtx(ctx, []dbg.PlanItem{{Name: "cnt"}})
		var werr *wire.Error
		if !errors.Is(err, context.Canceled) || !errors.As(err, &werr) || werr.Code != wire.CodeCancelled {
			t.Fatalf("pre-cancelled call returned %v, want a CodeCancelled error", err)
		}
	}
	// The actor serves a connection's commands in order, so had any
	// cancelled call been sent it would be counted before this peek.
	if _, err := sess.Peek("cnt"); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().CommandsServed - served; got != 1 {
		t.Errorf("server served %d commands for 20 pre-cancelled calls and a peek, want 1", got)
	}
}
