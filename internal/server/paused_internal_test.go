package server

import (
	"net"
	"testing"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/wire"
)

// TestStepReadsPausedFlagOnce pins that the actor does not read the
// paused flag again after a successful step, which has just verified
// that the design re-paused: a step through the server costs exactly the
// logical readbacks the facade's Step costs in process. A step that ends
// a running stretch still raises one EvtPaused; a step from a paused
// design raises none.
func TestStepReadsPausedFlagOnce(t *testing.T) {
	facade, err := NewCatalogSessionWith("counter", func(*zoomie.DebugConfig) {})
	if err != nil {
		t.Fatal(err)
	}
	defer facade.Close()
	if err := facade.Step(3); err != nil {
		t.Fatal(err)
	}
	before := facade.Cable.Stats().Readbacks
	if err := facade.Step(2); err != nil {
		t.Fatal(err)
	}
	if _, err := facade.Peek("cnt"); err != nil {
		t.Fatal(err)
	}
	want := facade.Cable.Stats().Readbacks - before

	srv := New(Config{PoolSize: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	}()
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	readbacks := func() int64 { return srv.session(sess.ID).cableStats().Readbacks }

	// The design runs after attach: this step ends a running stretch.
	if err := sess.Step(3); err != nil {
		t.Fatal(err)
	}
	// The actor finishes a command's post-reply work before it takes the
	// next command, so the peek closes the step's accounting.
	before = readbacks()
	if err := sess.Step(2); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Peek("cnt"); err != nil {
		t.Fatal(err)
	}
	if got := readbacks() - before; got != want {
		t.Errorf("server step+peek cost %d readbacks, the facade's %d", got, want)
	}

	if err := sess.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Step(1); err != nil {
		t.Fatal(err)
	}
	_, cycles, _, err := sess.Status()
	if err != nil {
		t.Fatal(err)
	}
	var got []wire.Event
	for len(c.Events()) > 0 {
		got = append(got, <-c.Events())
	}
	if len(got) != 2 {
		t.Fatalf("got %d events %+v, want the 2 that end running stretches", len(got), got)
	}
	for i, e := range got {
		if e.Kind != wire.EvtPaused || e.Op != wire.OpStep || e.Session != sess.ID {
			t.Errorf("event %d = %+v, want paused by step", i, e)
		}
	}
	if got[1].Cycles != cycles {
		t.Errorf("last pause event at cycle %d, status says %d", got[1].Cycles, cycles)
	}
}
