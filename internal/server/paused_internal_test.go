package server

import (
	"net"
	"testing"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/dbg"
	"zoomie/internal/wire"
)

// attachCounter serves a one-board server on a loopback port and attaches
// a client session to the counter design.
func attachCounter(t *testing.T) (*Server, *client.Client, *client.Session) {
	t.Helper()
	srv := New(Config{PoolSize: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sess, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	return srv, c, sess
}

// cableReadbacks returns the logical readbacks of a session's current
// cable (the zs pointer swap during migration is mutex-guarded).
func cableReadbacks(srv *Server, sid uint64) int64 {
	sess := srv.session(sid)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.zs.Cable.Stats().Readbacks
}

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

	srv, c, sess := attachCounter(t)
	readbacks := func() int64 { return cableReadbacks(srv, sess.ID) }

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

// TestSeekSyncsPausedWithoutRead pins that the actor does not read the
// paused flag after a successful seek, which always ends paused: a seek
// through the server costs exactly the logical readbacks of the facade's
// Seek plus the Cycles its reply carries. The seek raises no EvtPaused,
// and a trigger that fires after it still raises one.
func TestSeekSyncsPausedWithoutRead(t *testing.T) {
	facade, err := NewCatalogSessionWith("counter", func(*zoomie.DebugConfig) {})
	if err != nil {
		t.Fatal(err)
	}
	defer facade.Close()
	if err := facade.Step(50); err != nil {
		t.Fatal(err)
	}
	before := facade.Cable.Stats().Readbacks
	if _, err := facade.Seek(20); err != nil {
		t.Fatal(err)
	}
	if _, err := facade.Cycles(); err != nil {
		t.Fatal(err)
	}
	if _, err := facade.Peek("cnt"); err != nil {
		t.Fatal(err)
	}
	want := facade.Cable.Stats().Readbacks - before

	srv, c, sess := attachCounter(t)
	readbacks := func() int64 { return cableReadbacks(srv, sess.ID) }
	events := func() []wire.Event {
		// A status round trip closes the previous command's post-reply
		// work, so every event it raised has arrived.
		if _, _, _, err := sess.Status(); err != nil {
			t.Fatal(err)
		}
		var got []wire.Event
		for len(c.Events()) > 0 {
			got = append(got, <-c.Events())
		}
		return got
	}

	if err := sess.Step(50); err != nil {
		t.Fatal(err)
	}
	events() // the step that ended the running stretch
	before = readbacks()
	if _, err := sess.HistSeek(20); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Peek("cnt"); err != nil {
		t.Fatal(err)
	}
	if got := readbacks() - before; got != want {
		t.Errorf("server seek+peek cost %d readbacks, the facade's %d", got, want)
	}
	if got := events(); len(got) != 0 {
		t.Errorf("seek raised events %+v, want none", got)
	}

	if err := sess.SetValueBreakpoint("q", 30, dbg.BreakAny); err != nil {
		t.Fatal(err)
	}
	if err := sess.Resume(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunUntilPaused(1 << 10); err != nil {
		t.Fatal(err)
	}
	got := events()
	if len(got) != 1 || got[0].Kind != wire.EvtPaused || got[0].Op != wire.OpUntil {
		t.Fatalf("trigger after the seek raised %+v, want one pause by until", got)
	}
	if v, _ := sess.Peek("cnt"); v != 30 {
		t.Errorf("paused at cnt = %d, want the breakpoint's 30", v)
	}
}
