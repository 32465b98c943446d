// Package server is zoomied: the remote multi-session FPGA debug daemon.
// It is to Zoomie what gdbserver/OpenOCD are to software debuggers — the
// board-side service many clients attach to over the network. Each
// attached design is a *zoomie.Session owned by one actor goroutine
// (serialized commands, no locks in dbg), boards come from a fixed-
// capacity pool, idle sessions auto-detach so abandoned clients cannot
// hold boards forever, and breakpoint hits are pushed to subscribers as
// asynchronous events over the internal/wire protocol.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zoomie"
	"zoomie/internal/farm"
	"zoomie/internal/faults"
	"zoomie/internal/history"
	"zoomie/internal/obs"
	"zoomie/internal/wire"
)

// Config tunes the server.
type Config struct {
	// PoolSize is the number of modeled boards (default 4).
	PoolSize int
	// IdleTimeout auto-detaches a session with no commands for this long,
	// reclaiming its board (default 5 minutes).
	IdleTimeout time.Duration
	// Allow restricts attachable designs to this list; empty serves the
	// whole catalog.
	Allow []string
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// Chaos, when set and enabled, interposes a seeded fault injector on
	// every leased board. Each session derives its own seed from the
	// profile's, so concurrent sessions see independent but reproducible
	// fault patterns.
	Chaos *faults.Profile
	// ProbeInterval, when positive, health-probes every live session's
	// board this often; boards that fail are quarantined and their
	// sessions migrated (default: off; zoomied -chaos enables it).
	ProbeInterval time.Duration
	// QuarantineCooldown is how long an ejected board stays out of the
	// pool before requalifying (default 1 minute).
	QuarantineCooldown time.Duration
	// CompileCacheCap bounds the compile farm's shared checkpoint store
	// (entries; 0 = unbounded).
	CompileCacheCap int
}

// Server is a running zoomied instance.
type Server struct {
	cfg  Config
	pool *Pool

	// reg is the daemon's counter registry: status replies, -stats and
	// "counters" streams all read it. ctr caches its counters.
	reg *obs.Registry
	ctr *counters

	// farm is the process-wide compile service: one content-addressed
	// checkpoint store shared by every connection, so clients compiling
	// the same design serve each other's cache.
	farm *farm.Farm

	// hub is the serving layer: connections, broadcast, streams and the
	// transport counters.
	hub *Hub

	mu       sync.Mutex
	sessions map[uint64]*session
	nextSID  uint64
	closed   bool

	seedSalt int64 // atomic: distinct chaos seeds per leased board

	probeQuit chan struct{}
	probeOnce sync.Once

	wg sync.WaitGroup // session actors + connection handlers + prober
}

// New creates a server; call Serve to accept connections.
func New(cfg Config) *Server {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 4
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Chaos != nil && !cfg.Chaos.Enabled() {
		cfg.Chaos = nil
	}
	s := &Server{
		cfg:  cfg,
		pool: NewPool(cfg.PoolSize),
		reg:  obs.NewRegistry(),
		farm: farm.New(farm.Config{
			StoreCap: cfg.CompileCacheCap,
			Logf:     cfg.Logf,
		}),
		sessions:  make(map[uint64]*session),
		probeQuit: make(chan struct{}),
	}
	s.ctr = newCounters(s.reg)
	s.hub = NewHub(Frontend{
		Name:       "zoomied",
		Logf:       cfg.Logf,
		Reg:        s.reg,
		Dispatch:   s.dispatch,
		OpenStream: s.openStream,
		Closed:     func(c *Conn) { c.jobs.release(s.farm) },
	}, &s.wg)
	if cfg.QuarantineCooldown > 0 {
		s.pool.SetCooldown(cfg.QuarantineCooldown)
	}
	if cfg.ProbeInterval > 0 {
		s.wg.Add(1)
		go s.probeLoop()
	}
	return s
}

// probeLoop is the health prober: every interval it enqueues a probe task
// on each live session's actor. The actor owns the board, so the probe —
// and any quarantine/migration it triggers — runs serialized with the
// session's own commands; the prober never touches a cable itself.
func (s *Server) probeLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.probeQuit:
			return
		case <-t.C:
			s.mu.Lock()
			sessions := make([]*session, 0, len(s.sessions))
			for _, sess := range s.sessions {
				sessions = append(sessions, sess)
			}
			s.mu.Unlock()
			for _, sess := range sessions {
				// Best effort: a busy queue skips this round's probe.
				sess.enqueue(context.Background(),
					&wire.Request{Op: opProbe}, func(*wire.Response) {})
			}
		}
	}
}

// InjectorFor returns the fault injector currently driving a session's
// board, or nil. Test and operational hook: wedging it exercises the
// probe → quarantine → migration path deterministically.
func (s *Server) InjectorFor(sid uint64) *faults.Injector {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess := s.sessions[sid]; sess != nil {
		return sess.injector.Load()
	}
	return nil
}

// Pool exposes the board pool (read-only use: capacity/quarantine
// accounting in tests and the stats dump).
func (s *Server) Pool() *Pool { return s.pool }

// Obs exposes the server-wide counter registry. Embedding tools (zcheck,
// benchmarks) register their own taps here; whatever accumulates flows
// out through any open "counters" stream.
func (s *Server) Obs() *obs.Registry { return s.reg }

// newSessionFor builds one catalog design on a pooled board, wiring in a
// freshly seeded fault injector when chaos is configured, and lands a
// session's state on it: hist, a decoded or detached history engine, is
// adopted first, so its live mirror tracks the restore, then snap is
// restored through the mirror's diff, writing only the frames that
// differ and reading none back. A layout mismatch forfeits history but
// not the session; a failed restore closes the session, folds its
// counters and reports errSnapshotRestore. Plain attach (no state), state
// import and the board swap all build their sessions here.
func (s *Server) newSessionFor(design string, hist *history.Engine, snap *zoomie.DebugSnapshot) (*zoomie.Session, *zoomie.ILAMeta, *faults.Injector, *Lease, error) {
	var lease *Lease
	var inj *faults.Injector
	zs, ilaMeta, err := NewCatalogSessionILA(design, func(cfg *zoomie.DebugConfig) {
		cfg.LeaseBoard = func(dev *zoomie.Device) (*zoomie.Board, error) {
			l, lerr := s.pool.Lease(dev)
			if lerr != nil {
				return nil, lerr
			}
			lease = l
			return l.Board, nil
		}
		if s.cfg.Chaos != nil {
			p := *s.cfg.Chaos
			p.Seed += atomic.AddInt64(&s.seedSalt, 1) * 7919 // distinct, reproducible per board
			inj = faults.New(p)
			cfg.Faults = inj
		}
	})
	if err != nil {
		if lease != nil {
			lease.Release()
		}
		return nil, nil, nil, nil, err
	}
	zs.AtClose(func() error { lease.Release(); return nil })
	if err := zs.AdoptHistory(hist); err != nil {
		s.cfg.Logf("zoomied: %s: history not transplanted: %v", design, err)
	}
	if snap != nil {
		if err := zs.RestoreSnapshot(context.Background(), snap); err != nil {
			zs.Close()
			s.ctr.fold(zs, inj, &cableCounts{})
			return nil, nil, nil, nil, fmt.Errorf("%w: %v", errSnapshotRestore, err)
		}
	}
	return zs, ilaMeta, inj, lease, nil
}

// errSnapshotRestore marks newSessionFor's failure to restore the state
// it landed, as opposed to a failure to build the session.
var errSnapshotRestore = errors.New("snapshot restore")

// Serve accepts connections until Shutdown (returns nil) or a listener
// error.
func (s *Server) Serve(ln net.Listener) error { return s.hub.Serve(ln) }

// Shutdown stops the server gracefully: no new connections or attaches,
// every session actor pauses its design and releases its board, and all
// connections close. Blocks until teardown completes. Idempotent.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	s.probeOnce.Do(func() { close(s.probeQuit) })
	s.hub.Close(&wire.Event{Kind: wire.EvtShutdown, Detail: "server shutting down"})
	for _, sess := range sessions {
		sess.signalQuit()
	}
	s.wg.Wait()
	s.cfg.Logf("zoomied: shut down (%d sessions closed)", len(sessions))
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// session looks up a live session by id.
func (s *Server) session(id uint64) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// dropSession unregisters a torn-down session.
func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	s.cfg.Logf("zoomied: session %d (%s) closed", sess.id, sess.design)
}

// allowed reports whether an allowlist serves a design; an empty list
// serves the whole catalog.
func allowed(allow []string, design string) bool {
	if len(allow) == 0 {
		return true
	}
	for _, a := range allow {
		if a == design {
			return true
		}
	}
	return false
}

// attach builds, compiles and starts a catalog design on a pooled board,
// then spawns its actor. OpStateImport is attach-with-state, the landing
// path of cross-daemon failover: Blob carries an exported state blob,
// whose history and snapshot (full scope, so breakpoints and pause state
// land armed) newSessionFor lands on the fresh session before it is
// registered, as it does for the in-daemon board swap. Runs on the
// calling connection's read loop: a long compile stalls only that client.
func (s *Server) attach(c *Conn, req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	fail := func(code, format string, args ...any) *wire.Response {
		resp.Err = wire.Errf(code, format, args...)
		return resp
	}
	if s.isClosed() {
		return fail(wire.CodeShutdown, "server shutting down")
	}
	name := req.Design
	if _, ok := Catalog()[name]; !ok {
		return fail(wire.CodeUnknownDesign, "unknown design %q (have: %v)", name, CatalogNames())
	}
	if !allowed(s.cfg.Allow, name) {
		return fail(wire.CodeForbidden, "design %q not served (allowlist: %v)", name, s.cfg.Allow)
	}
	var snap *zoomie.DebugSnapshot // the imported state; nil for a plain attach
	var hist *history.Engine
	verb := "attached"
	if req.Op == wire.OpStateImport {
		var err error
		if snap, hist, err = decodeExport(req.Blob); err != nil {
			return fail(wire.CodeBadRequest, "import: %v", err)
		}
		verb = "imported"
	}
	zs, ilaMeta, inj, lease, err := s.newSessionFor(name, hist, snap)
	switch {
	case errors.Is(err, ErrPoolExhausted):
		return fail(wire.CodePoolExhausted, "%s", err)
	case errors.Is(err, errSnapshotRestore):
		return fail(wire.CodeOp, "import: %s", err)
	case err != nil:
		return fail(wire.CodeOp, "%s", err)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		zs.Close()
		return fail(wire.CodeShutdown, "server shutting down")
	}
	s.nextSID++
	sess := newSession(s.nextSID, name, zs, s)
	sess.lease = lease
	sess.ilaMeta = ilaMeta
	sess.lastGood = snap // an import's board holds it now: the known-good base
	sess.injector.Store(inj)
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	s.ctr.SessionsTotal.Inc()
	s.wg.Add(1)
	go sess.loop()
	c.Subscribe(sess.id)
	s.cfg.Logf("zoomied: session %d %s %s on board lease %d (%s)",
		sess.id, verb, name, lease.ID, lease.Device)

	resp.Session = sess.id
	resp.Design = name
	resp.Device = lease.Device
	resp.Report = fmt.Sprintf("%s", zs.Result.Report)
	for _, w := range zs.Meta.Watches {
		resp.Watches = append(resp.Watches, w.Signal)
	}
	if snap != nil {
		resp.Cycles = snap.Cycle
	}
	return resp
}

// dispatch serves the daemon's requests: attach, status, the stream and
// compile ops inline, session ops enqueued on the owning actor and
// answered asynchronously. The fleet ops are zfleet's; a daemon refuses
// them as unknown before looking for a session, whatever session id they
// carry.
func (s *Server) dispatch(c *Conn, req *wire.Request) {
	switch req.Op {
	case wire.OpAttach, wire.OpStateImport:
		s.ctr.CommandsServed.Inc()
		c.Reply(s.attach(c, req))
	case wire.OpStatus:
		s.ctr.CommandsServed.Inc()
		c.Reply(&wire.Response{ID: req.ID, Stats: s.Stats()})
	case wire.OpStreamOpen, wire.OpStreamCredit, wire.OpStreamClose:
		s.ctr.CommandsServed.Inc()
		c.Reply(c.StreamOp(req))
	case wire.OpCompileSubmit, wire.OpCompileStatus, wire.OpCompileCancel:
		s.ctr.CommandsServed.Inc()
		c.Reply(handleCompile(c.ctx, s.farm, &c.jobs, s.cfg.Allow, req))
	case wire.OpFleetStat, wire.OpFleetDrain:
		c.Reply(&wire.Response{ID: req.ID,
			Err: wire.Errf(wire.CodeUnknownOp, "unknown op %q (zoomied is not a zfleet coordinator)", req.Op)})
	default:
		sess := s.session(req.Session)
		if sess == nil {
			c.Reply(&wire.Response{ID: req.ID,
				Err: wire.Errf(wire.CodeNoSession, "no session %d", req.Session)})
			return
		}
		if werr := sess.enqueue(c.ctx, req, c.Reply); werr != nil {
			c.Reply(&wire.Response{ID: req.ID, Err: werr})
		}
	}
}
