package server_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/dbg"
	"zoomie/internal/faults"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// TestChaosStress is the end-to-end resilience gate: four clients drive
// full pause/poke/peek/step/resume/readback loops against a server whose
// every cable flips roughly 1% of the words it moves (plus transient
// execution errors), and every peeked value is checked exactly. The
// guarded transport must let zero corrupted words through to the facade,
// every operation must either succeed or fail with a typed wire error,
// and the actor serialization tripwire must stay at zero — all under
// -race.
func TestChaosStress(t *testing.T) {
	const (
		nClients = 4
		nIters   = 15
	)
	chaos := faults.Profile{Seed: 99, ReadFlip: 0.01, WriteFlip: 0.01, Exec: 0.005}
	srv, addr := startServer(t, server.Config{PoolSize: nClients, Chaos: &chaos})

	var wg sync.WaitGroup
	errs := make(chan error, nClients*nIters*4)
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.DialOptions(addr, client.Options{CallTimeout: 30 * time.Second})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			sess, err := c.Attach("counter")
			if err != nil {
				errs <- err
				return
			}
			for it := 0; it < nIters; it++ {
				if err := sess.Pause(); err != nil {
					errs <- fmt.Errorf("client %d pause: %w", id, err)
					return
				}
				want := uint64(id*1000 + it)
				if err := sess.Poke("cnt", want); err != nil {
					errs <- fmt.Errorf("client %d poke: %w", id, err)
					return
				}
				got, err := sess.Peek("cnt")
				if err != nil {
					errs <- fmt.Errorf("client %d peek: %w", id, err)
					return
				}
				if got != want {
					errs <- fmt.Errorf("client %d: CORRUPTED READ reached facade: cnt=%d want %d", id, got, want)
					return
				}
				steps := 1 + it%3
				if err := sess.Step(steps); err != nil {
					errs <- fmt.Errorf("client %d step: %w", id, err)
					return
				}
				if got, err = sess.Peek("cnt"); err != nil {
					errs <- fmt.Errorf("client %d peek after step: %w", id, err)
					return
				}
				if got != want+uint64(steps) {
					errs <- fmt.Errorf("client %d: CORRUPTED READ after step: cnt=%d want %d", id, got, want+uint64(steps))
					return
				}
				// Full-state readback (server-side snapshot) rides the same
				// verified transport.
				if it%5 == 4 {
					if _, _, _, err := sess.Snapshot(); err != nil {
						errs <- fmt.Errorf("client %d snapshot: %w", id, err)
						return
					}
				}
				if err := sess.Resume(); err != nil {
					errs <- fmt.Errorf("client %d resume: %w", id, err)
					return
				}
			}
			if err := sess.Detach(); err != nil {
				errs <- fmt.Errorf("client %d detach: %w", id, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := srv.Stats()
	if st.Interleaved != 0 {
		t.Fatalf("actor serialization violated under chaos: %d interleaved", st.Interleaved)
	}
	if st.FaultsInjected == 0 {
		t.Error("chaos profile injected zero faults — injection is not wired in")
	}
	if st.JtagReReads == 0 {
		t.Error("zero frame re-reads at a 1%% flip rate — verified readback is not engaged")
	}
	t.Logf("chaos survived: %d faults injected, %d retries, %d re-reads, %d rewrites",
		st.FaultsInjected, st.JtagRetries, st.JtagReReads, st.JtagRewrites)
}

// TestWedgeQuarantineMigration wedges a session's board under the health
// prober and asserts the self-healing chain: the probe detects the wedge
// within its interval, the board is quarantined (with an async event),
// and the session migrates to a fresh board restored from its last
// known-good snapshot — poked values and armed breakpoints intact.
func TestWedgeQuarantineMigration(t *testing.T) {
	chaos := faults.Profile{Seed: 7, ReadFlip: 0.001}
	srv, addr := startServer(t, server.Config{
		PoolSize:           2,
		Chaos:              &chaos,
		ProbeInterval:      50 * time.Millisecond,
		QuarantineCooldown: time.Hour, // keep the benched board visible to assertions
	})

	c, err := client.DialOptions(addr, client.Options{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}

	// Establish state a migration must carry over: a paused design with a
	// poked register and an armed breakpoint.
	if err := sess.Pause(); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetValueBreakpoint("q", 1300, 1 /* BreakAny */); err != nil {
		t.Fatal(err)
	}
	if err := sess.Poke("cnt", 1234); err != nil {
		t.Fatal(err)
	}

	inj := srv.InjectorFor(sess.ID)
	if inj == nil {
		t.Fatal("no injector on a chaos-mode session")
	}
	inj.Wedge()

	// The prober must notice within a few intervals and the session must
	// come back on a fresh board.
	var sawQuarantine, sawMigrate bool
	deadline := time.After(5 * time.Second)
	for !(sawQuarantine && sawMigrate) {
		select {
		case e, ok := <-c.Events():
			if !ok {
				t.Fatal("event channel closed before migration completed")
			}
			switch e.Kind {
			case wire.EvtQuarantined:
				sawQuarantine = true
			case wire.EvtMigrated:
				sawMigrate = true
			}
		case <-deadline:
			t.Fatalf("no quarantine+migration within deadline (quarantine=%v migrate=%v)",
				sawQuarantine, sawMigrate)
		}
	}

	// The poked value survived the move...
	got, err := sess.Peek("cnt")
	if err != nil {
		t.Fatalf("peek after migration: %v", err)
	}
	if got != 1234 {
		t.Fatalf("after migration cnt=%d, want 1234 (known-good snapshot not restored)", got)
	}
	// ...the design is still paused...
	paused, err := sess.Paused()
	if err != nil {
		t.Fatal(err)
	}
	if !paused {
		t.Fatal("pause state lost in migration")
	}
	// ...and the breakpoint is still armed: releasing the host pause and
	// running hits it at q==1300.
	if err := sess.Resume(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunUntilPaused(1 << 14); err != nil {
		t.Fatalf("run-until after migration: %v", err)
	}
	if got, _ = sess.Peek("cnt"); got != 1300 {
		t.Fatalf("breakpoint after migration paused at cnt=%d, want 1300", got)
	}

	st := srv.Stats()
	if st.Quarantines < 1 || st.PoolQuarantined < 1 {
		t.Errorf("quarantine accounting: lifetime=%d benched=%d, want >=1 each",
			st.Quarantines, st.PoolQuarantined)
	}
	if st.Migrations < 1 {
		t.Errorf("migrations=%d, want >=1", st.Migrations)
	}
	if st.Probes == 0 || st.ProbeFailures == 0 {
		t.Errorf("probe accounting: probes=%d failures=%d, want >0 each", st.Probes, st.ProbeFailures)
	}
}

// TestWedgeUnseenByKnownFrames pins the wedge-detection trade-off of
// known frames. A command answered from frames the debugger already knows
// never reaches the board, so it cannot notice a wedge. Without a prober
// such commands keep succeeding, and the first command that needs the
// cable fails over. With a prober, the wedged board is quarantined within
// one probe interval all the same, while commands go on being answered.
func TestWedgeUnseenByKnownFrames(t *testing.T) {
	attach := func(t *testing.T, probe time.Duration) (*server.Server, *client.Client, *client.Session) {
		srv, addr := startServer(t, server.Config{
			PoolSize:           2,
			Chaos:              &faults.Profile{Seed: 7, ReadFlip: 0.001},
			ProbeInterval:      probe,
			QuarantineCooldown: time.Hour,
		})
		c, err := client.DialOptions(addr, client.Options{CallTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		sess, err := c.Attach("counter")
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Pause(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Poke("cnt", 1234); err != nil {
			t.Fatal(err)
		}
		return srv, c, sess
	}
	peek := func(t *testing.T, sess *client.Session, want uint64) {
		t.Helper()
		if v, err := sess.Peek("cnt"); err != nil || v != want {
			t.Fatalf("peek cnt = %d, %v; want %d", v, err, want)
		}
	}

	t.Run("no prober", func(t *testing.T) {
		srv, _, sess := attach(t, 0)
		srv.InjectorFor(sess.ID).Wedge()
		for i := 0; i < 10; i++ {
			peek(t, sess, 1234)
		}
		if st := srv.Stats(); st.Migrations != 0 {
			t.Fatalf("peeks of known frames migrated %d times, want 0", st.Migrations)
		}
		if err := sess.Step(1); err != nil {
			t.Fatal(err)
		}
		if st := srv.Stats(); st.Migrations != 1 {
			t.Errorf("the step that needed the cable left migrations=%d, want 1", st.Migrations)
		}
		peek(t, sess, 1235)
	})

	t.Run("prober", func(t *testing.T) {
		const interval = 300 * time.Millisecond
		srv, c, sess := attach(t, interval)
		for len(c.Events()) > 0 {
			<-c.Events()
		}
		wedged := time.Now()
		srv.InjectorFor(sess.ID).Wedge()
		answered := 0
		var quarantined, migrated bool
		for !migrated {
			select {
			case e := <-c.Events():
				quarantined = quarantined || e.Kind == wire.EvtQuarantined
				migrated = e.Kind == wire.EvtMigrated
			default:
				peek(t, sess, 1234)
				answered++
			}
			// One interval until the prober's next tick, plus slack for a
			// loaded machine to run the probe.
			if !quarantined && time.Since(wedged) > interval+time.Second {
				t.Fatalf("no quarantine %v after the wedge, probe interval %v", time.Since(wedged), interval)
			}
			if time.Since(wedged) > 10*time.Second {
				t.Fatal("no migration within 10s of the quarantine")
			}
		}
		if !quarantined {
			t.Fatal("migrated without a quarantine event")
		}
		if answered == 0 {
			t.Error("no command was answered while the prober caught up with the wedge")
		}
		st := srv.Stats()
		if st.ProbeFailures != 1 || st.Migrations != 1 {
			t.Errorf("probe failures=%d migrations=%d, want 1 each", st.ProbeFailures, st.Migrations)
		}
		peek(t, sess, 1234)
		if err := sess.Step(1); err != nil {
			t.Fatal(err)
		}
		peek(t, sess, 1235)
	})
}

// wedgeProfile is a fault profile that injects nothing but a wedge after
// the given number of backend operations, so every operation count is a
// function of the command sequence alone.
func wedgeProfile(after int64) *faults.Profile {
	return &faults.Profile{Seed: 7, WedgeAfter: after}
}

// TestWedgeDuringCaptureMigratesExactly lands a wedge on the known-good
// capture that follows a step. The capture is part of the command: the
// step fails over to a fresh board restored from the pre-step snapshot
// and is executed again there, so the stepped state survives. (A capture
// taken after the reply would fail silently and leave the pre-step
// snapshot as the migration source.) A poke's capture is no target: it
// re-reads only the frame the poke has just written and verified, which
// the debugger knows, so it costs no backend operation at all.
func TestWedgeDuringCaptureMigratesExactly(t *testing.T) {
	// A counter that also writes a memory word every cycle: a step changes
	// a frame besides the Debug Controller's, whose frame its pause check
	// reads, so the step's capture has a frame to read from the board.
	const design = "wedge-memcounter"
	server.Register(design, server.Entry{
		Describe: "16-bit counter logging into a 32-word memory",
		Build: func() (*zoomie.Design, zoomie.DebugConfig) {
			m := zoomie.NewModule("memcounter")
			q := m.Output("q", 16)
			cnt := m.Reg("cnt", 16, "clk", 0)
			m.SetNext(cnt, zoomie.Add(zoomie.S(cnt), zoomie.C(1, 16)))
			m.Mem("log", 16, 32).Write("clk", zoomie.Slice(zoomie.S(cnt), 4, 0), zoomie.S(cnt), zoomie.C(1, 1))
			m.Connect(q, zoomie.S(cnt))
			return zoomie.NewDesign("memcounter", m), zoomie.DebugConfig{Watches: []string{"q"}}
		},
	})
	t.Cleanup(func() { server.Unregister(design) })
	// Pad the op count so the replacement board, which pays the same boot,
	// stays well below the wedge threshold. A peek of a known frame costs
	// nothing, so each peek follows a clock tick of the paused design.
	const pad = 100
	type marks struct{ afterPad, afterStep, afterPoke, peekOps, cycles, cnt uint64 }
	script := func(t *testing.T, wedgeAfter int64) (*server.Server, *client.Session, marks) {
		srv, addr := startServer(t, server.Config{PoolSize: 2, Chaos: wedgeProfile(wedgeAfter)})
		c, err := client.DialOptions(addr, client.Options{CallTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		sess, err := c.Attach(design)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Pause(); err != nil {
			t.Fatal(err)
		}
		inj := srv.InjectorFor(sess.ID)
		ops := func() uint64 { return uint64(inj.Stats().Ops) }
		for i := 0; i < pad; i++ {
			if err := sess.Run(1); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Peek("cnt"); err != nil {
				t.Fatal(err)
			}
		}
		// The step starts from a known Debug Controller frame, as the
		// local calibration below does.
		if _, err := sess.Paused(); err != nil {
			t.Fatal(err)
		}
		var m marks
		m.afterPad = ops()
		if err := sess.Step(1); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Peek("cnt"); err != nil {
			t.Fatal(err)
		}
		m.afterStep = ops()
		if err := sess.Poke("cnt", 1234); err != nil {
			t.Fatal(err)
		}
		m.afterPoke = ops()
		if m.cnt, err = sess.Peek("cnt"); err != nil {
			t.Fatal(err)
		}
		m.peekOps = ops() - m.afterPoke
		if m.cycles, err = sess.Cycles(); err != nil {
			t.Fatal(err)
		}
		return srv, sess, m
	}

	// Calibrate on a board that never wedges against a local session over
	// the same link, which takes no known-good captures: the step ends
	// where the local step's own operations end, and its capture costs
	// more; the poke and its capture cost exactly the local poke.
	_, _, m := script(t, 1<<40)
	inj := faults.New(*wedgeProfile(1 << 40))
	local, err := server.NewCatalogSessionWith(design, func(cfg *zoomie.DebugConfig) { cfg.Faults = inj })
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if err := local.Pause(); err != nil {
		t.Fatal(err)
	}
	if _, err := local.Paused(); err != nil {
		t.Fatal(err)
	}
	before := inj.Stats().Ops
	if err := local.Step(1); err != nil {
		t.Fatal(err)
	}
	stepEnd := int64(m.afterPad) + inj.Stats().Ops - before
	if _, err := local.Peek("cnt"); err != nil {
		t.Fatal(err)
	}
	before = inj.Stats().Ops
	if err := local.Poke("cnt", 1234); err != nil {
		t.Fatal(err)
	}
	if got, want := m.afterPoke-m.afterStep, uint64(inj.Stats().Ops-before); got != want {
		t.Fatalf("the poke and its capture cost %d backend operations, the poke alone %d; want the capture free", got, want)
	}
	if m.peekOps != 0 {
		t.Fatalf("a peek of the poked frame cost %d backend operations, want 0", m.peekOps)
	}
	if captureEnd := int64(m.afterStep); captureEnd <= stepEnd {
		t.Fatalf("the capture after the step cost no backend operation (step ends at op %d, capture at %d)",
			stepEnd, captureEnd)
	}

	// Wedge on the capture's first operation.
	srv, sess, got := script(t, stepEnd)
	if got.cnt != 1234 || got.cycles != m.cycles {
		t.Fatalf("after a wedge during the post-step capture cnt=%d at cycle %d, want 1234 at cycle %d",
			got.cnt, got.cycles, m.cycles)
	}
	if paused, err := sess.Paused(); err != nil || !paused {
		t.Fatalf("paused=%v err=%v after migration, want paused", paused, err)
	}
	if st := srv.Stats(); st.Migrations != 1 {
		t.Errorf("migrations=%d, want 1", st.Migrations)
	}
}

// TestRunWedgeMigratePreservesCycles runs the free-running design, wedges
// its board and requires the migrated session to resume at the cycle the
// run reached: run changes state, so it refreshes the known-good
// snapshot like any other mutating command. That refresh re-reads every
// frame the run changed, so a cycle count is answered from known frames
// and never meets the wedge; the pause that follows needs the cable, and
// must land on the cycle an undisturbed board pauses at.
func TestRunWedgeMigratePreservesCycles(t *testing.T) {
	script := func(wedge bool) (srv *server.Server, ran, paused uint64) {
		srv, addr := startServer(t, server.Config{
			PoolSize:           2,
			Chaos:              &faults.Profile{Seed: 7, ReadFlip: 0.001},
			QuarantineCooldown: time.Hour,
		})
		c, err := client.DialOptions(addr, client.Options{CallTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		sess, err := c.Attach("counter")
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Run(500); err != nil {
			t.Fatal(err)
		}
		if ran, err = sess.Cycles(); err != nil {
			t.Fatal(err)
		}
		if wedge {
			srv.InjectorFor(sess.ID).Wedge()
			if got, err := sess.Cycles(); err != nil || got != ran {
				t.Fatalf("cycles from known frames on the wedged board = %d, %v; want %d", got, err, ran)
			}
		}
		if err := sess.Pause(); err != nil {
			t.Fatal(err)
		}
		if paused, err = sess.Cycles(); err != nil {
			t.Fatal(err)
		}
		return srv, ran, paused
	}
	_, want, wantPaused := script(false)
	if want < 500 {
		t.Fatalf("design ran to cycle %d, want at least 500", want)
	}
	srv, got, gotPaused := script(true)
	if got != want || gotPaused != wantPaused {
		t.Fatalf("after run -> wedge -> migrate the design ran to cycle %d and paused at %d, want %d and %d",
			got, gotPaused, want, wantPaused)
	}
	if st := srv.Stats(); st.Migrations != 1 {
		t.Errorf("migrations=%d, want 1", st.Migrations)
	}
}

// TestFailedUntilWedgeMigratePreservesCycles pins that a mutating
// command which fails after it ran still refreshes the known-good
// snapshot: `until` with no trigger armed runs its ticks and then reports
// that no trigger fired. A wedge after it must migrate the session to the
// cycle the board had reached, not to the one before the until.
func TestFailedUntilWedgeMigratePreservesCycles(t *testing.T) {
	script := func(wedge bool) (srv *server.Server, cycles uint64) {
		srv, addr := startServer(t, server.Config{
			PoolSize:           2,
			Chaos:              &faults.Profile{Seed: 7, ReadFlip: 0.001},
			QuarantineCooldown: time.Hour,
		})
		c, err := client.DialOptions(addr, client.Options{CallTimeout: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		sess, err := c.Attach("counter")
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Step(10); err != nil {
			t.Fatal(err)
		}
		if err := sess.Resume(); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.RunUntilPaused(50); err == nil {
			t.Fatal("until 50 with no trigger armed succeeded")
		}
		if wedge {
			srv.InjectorFor(sess.ID).Wedge()
		}
		if err := sess.Pause(); err != nil {
			t.Fatal(err)
		}
		if cycles, err = sess.Cycles(); err != nil {
			t.Fatal(err)
		}
		return srv, cycles
	}
	_, want := script(false)
	srv, got := script(true)
	if got != want {
		t.Fatalf("after a failed until -> wedge -> migrate the design paused at cycle %d, want %d", got, want)
	}
	if st := srv.Stats(); st.Migrations != 1 {
		t.Errorf("migrations=%d, want 1", st.Migrations)
	}
}

// TestQuarantineCooldownRequalifies asserts a benched board slot returns
// to capacity after its cooldown: with a pool of 1 and a quarantined
// board, attach fails until the cooldown expires, then succeeds.
func TestQuarantineCooldownRequalifies(t *testing.T) {
	pool := server.NewPool(1)
	pool.SetCooldown(100 * time.Millisecond)
	l, err := pool.Lease(testDevice())
	if err != nil {
		t.Fatal(err)
	}
	l.Quarantine()
	if _, err := pool.Lease(testDevice()); err == nil {
		t.Fatal("lease succeeded while the only slot is quarantined")
	}
	if got := pool.Quarantined(); got != 1 {
		t.Fatalf("Quarantined()=%d, want 1", got)
	}
	time.Sleep(150 * time.Millisecond)
	if _, err := pool.Lease(testDevice()); err != nil {
		t.Fatalf("lease after cooldown: %v", err)
	}
	if got := pool.QuarantineCount(); got != 1 {
		t.Fatalf("QuarantineCount()=%d, want 1", got)
	}
}

// flakyProxy is a TCP relay whose connections can be severed on demand —
// the cable cutter for connection-loss tests.
type flakyProxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	conns []net.Conn
}

func newFlakyProxy(t *testing.T, target string) *flakyProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, target: target}
	go p.accept()
	t.Cleanup(func() { ln.Close(); p.sever() })
	return p
}

func (p *flakyProxy) addr() string { return p.ln.Addr().String() }

func (p *flakyProxy) accept() {
	for {
		cc, err := p.ln.Accept()
		if err != nil {
			return
		}
		sc, err := net.Dial("tcp", p.target)
		if err != nil {
			cc.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, cc, sc)
		p.mu.Unlock()
		go func() { io.Copy(sc, cc); sc.Close() }()
		go func() { io.Copy(cc, sc); cc.Close() }()
	}
}

// sever cuts every live relayed connection (the listener stays up, so
// a fresh dial goes through).
func (p *flakyProxy) sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// cutOnWrite is a client connection that severs the proxy it dials
// through as the next armed write starts, so the request that write
// carries is in flight when the connection goes.
type cutOnWrite struct {
	net.Conn
	armed *atomic.Bool
	cut   func()
}

func (c cutOnWrite) Write(p []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) {
		c.cut()
	}
	return c.Conn.Write(p)
}

// TestDroppedConnectionFailsFast severs a client's connection with a
// call in flight. That call and every later one fail with CodeConnLost,
// promptly, and an open stream reports closed. The session outlives the
// connection: a second connection drives it by id and finds it paused
// with its breakpoint armed, until the idle timeout reaps it.
func TestDroppedConnectionFailsFast(t *testing.T) {
	const idle = 2 * time.Second
	_, addr := startServer(t, server.Config{PoolSize: 2, IdleTimeout: idle})
	proxy := newFlakyProxy(t, addr)

	var armed atomic.Bool
	c, err := client.DialOptions(proxy.addr(), client.Options{
		CallTimeout: 30 * time.Second,
		Dial: func(network, addr string) (net.Conn, error) {
			nc, err := net.Dial(network, addr)
			if err != nil {
				return nil, err
			}
			return cutOnWrite{nc, &armed, proxy.sever}, nil
		},
	})
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
	if err := sess.SetValueBreakpoint("q", 400, dbg.BreakAny); err != nil {
		t.Fatal(err)
	}
	if err := sess.Poke("cnt", 350); err != nil {
		t.Fatal(err)
	}
	st, err := c.OpenStream(wire.StreamCounters, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}

	// The in-flight call fails with CodeConnLost within a bound, not at
	// the 30 s call timeout.
	armed.Store(true)
	start := time.Now()
	if _, err := sess.Peek("cnt"); !wire.IsCode(err, wire.CodeConnLost) {
		t.Fatalf("in-flight peek across the cut: %v, want CodeConnLost", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("the in-flight peek took %v to fail", d)
	}
	// Every later call fails the same way, without touching the wire.
	for name, call := range map[string]func() error{
		"step":   func() error { return sess.Step(1) },
		"status": func() error { _, err := c.ServerStats(); return err },
		"attach": func() error { _, err := c.Attach("counter"); return err },
	} {
		if err := call(); !wire.IsCode(err, wire.CodeConnLost) {
			t.Errorf("%s after the cut: %v, want CodeConnLost", name, err)
		}
	}
	// The open stream reports closed, not a timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		if _, ok := st.RecvCtx(ctx); !ok {
			break
		}
	}
	if ctx.Err() != nil {
		t.Fatal("the stream was still open 5s after its connection was cut")
	}

	// A second connection drives the same session by id: still paused,
	// the peek's state intact, the breakpoint still armed.
	c2, err := client.Dial(proxy.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	do := func(req *wire.Request) *wire.Response {
		t.Helper()
		req.Session = sess.ID
		resp, err := c2.Call(req)
		if err != nil {
			t.Fatalf("%s from a second connection: %v", req.Op, err)
		}
		return resp
	}
	if !do(&wire.Request{Op: wire.OpSessStat}).Paused {
		t.Fatal("the session did not stay paused across the cut")
	}
	if v := do(&wire.Request{Op: wire.OpPeek, Name: "cnt"}).Value; v != 350 {
		t.Fatalf("cnt=%d after the cut, want 350", v)
	}
	if err := c2.Subscribe(sess.ID); err != nil {
		t.Fatal(err)
	}
	do(&wire.Request{Op: wire.OpResume})
	do(&wire.Request{Op: wire.OpUntil, N: 1 << 14})
	if v := do(&wire.Request{Op: wire.OpPeek, Name: "cnt"}).Value; v != 400 {
		t.Fatalf("the breakpoint paused at cnt=%d, want 400", v)
	}

	// Left alone, the session idles out.
	timeout := time.After(idle + 10*time.Second)
	for detached := false; !detached; {
		select {
		case ev := <-c2.Events():
			detached = ev.Kind == wire.EvtDetached && ev.Session == sess.ID
			if detached && !strings.HasPrefix(ev.Detail, "idle for") {
				t.Fatalf("session detached: %q, want the idle timeout", ev.Detail)
			}
		case <-timeout:
			t.Fatal("the session outlived its idle timeout")
		}
	}
	if _, err := c2.Call(&wire.Request{Op: wire.OpPeek, Session: sess.ID, Name: "cnt"}); !wire.IsCode(err, wire.CodeNoSession) {
		t.Fatalf("peek after the idle timeout: %v, want CodeNoSession", err)
	}
}
