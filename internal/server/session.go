package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"zoomie"
	"zoomie/internal/dbg"
	"zoomie/internal/faults"
	"zoomie/internal/jtag"
	"zoomie/internal/wire"
)

// opProbe is the internal health-check op the prober enqueues; it never
// appears on the wire.
const opProbe = "_probe"

// opIlaPoll is the internal op an ILA stream's ticker enqueues: check
// whether the capture window completed; if so, upload it in one batched
// readback, re-arm the trigger, and hand the decoded rows back. Like
// opProbe it never appears on the wire and is serialized with the
// session's own commands by the actor, so streaming can never interleave
// with a paused-debug interaction.
const opIlaPoll = "_ilapoll"

// opHistPoll is the internal op a history stream's ticker enqueues:
// collect keyframes recorded since the stream's generation cursor
// (carried in Request.Value) and hand them back as [pos, cycle, bytes]
// rows for timeline scrubbing. Serialized by the actor like opIlaPoll.
const opHistPoll = "_histpoll"

// session is one attached design: a Local — the facade session and the
// state the op table works on — owned by a single actor goroutine that
// drains a request channel. The actor is how the server retrofits
// thread-safety onto the lock-free debugger — commands for a session are
// serialized by construction (no mutexes threaded through dbg), while
// different sessions run fully concurrently, so one slow Snapshot cannot
// block anyone else's stepping.
//
// The actor also owns the session's survival: when its board fails (a
// wedge, exhausted retries, unverifiable frames) it quarantines the
// lease, leases a fresh board, restores the last known-good snapshot —
// full scope, so breakpoints and pause state travel too — and re-runs
// the failing command, all without the client noticing more than a slow
// response.
type session struct {
	Local // zs swaps are mutex-guarded; the rest is actor-local

	id     uint64
	design string
	srv    *Server

	lease    *Lease
	injector atomic.Pointer[faults.Injector]

	// ilaMeta decodes this design's ILA capture windows; nil for entries
	// without an ILA (ila streams are then refused at open).
	ilaMeta *zoomie.ILAMeta

	reqs chan task
	quit chan struct{} // closed by Shutdown
	once sync.Once     // guards close(quit)

	mu     sync.Mutex // guards closed, the enqueue/teardown handoff, and zs/lease swaps
	closed bool

	// busy is the serialization tripwire: handle() CASes it 0->1 on
	// entry. Because only the actor goroutine calls handle, a failed CAS
	// means two commands interleaved mid-command — counted in
	// zoomied.interleaved and asserted zero by the race stress test.
	busy int32

	// Actor-local state (only the actor goroutine touches these).
	lastPaused bool
	folded     cableCounts // the current board's counts already in the registry
}

// task is one queued command with its completion callback. ctx is the
// issuing connection's context: it is cancelled when that client's
// connection dies, so the actor abandons the command mid-batch instead
// of finishing cable work nobody will read.
type task struct {
	req   *wire.Request
	reply func(*wire.Response)
	ctx   context.Context
}

// queueDepth bounds per-session pipelining; a full queue pushes back
// with CodeBusy instead of buffering without bound.
const queueDepth = 64

func newSession(id uint64, design string, zs *zoomie.Session, srv *Server) *session {
	return &session{
		Local:  Local{zs: zs, ctr: srv.ctr},
		id:     id,
		design: design,
		srv:    srv,
		reqs:   make(chan task, queueDepth),
		quit:   make(chan struct{}),
	}
}

// enqueue hands a command to the actor. It never blocks: a torn-down
// session reports CodeNoSession, a full queue CodeBusy.
func (s *session) enqueue(ctx context.Context, req *wire.Request, reply func(*wire.Response)) *wire.Error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wire.Errf(wire.CodeNoSession, "no session %d", s.id)
	}
	select {
	case s.reqs <- task{req: req, reply: reply, ctx: ctx}:
		return nil
	default:
		return wire.Errf(wire.CodeBusy, "session %d: command queue full (%d pending)", s.id, queueDepth)
	}
}

// signalQuit asks the actor to tear down (graceful shutdown path).
func (s *session) signalQuit() { s.once.Do(func() { close(s.quit) }) }

// loop is the actor: one goroutine draining commands, arming an idle
// timer between them. When the timer fires the session auto-detaches
// and its board goes back to the pool.
func (s *session) loop() {
	defer s.srv.wg.Done()
	if s.injector.Load() != nil {
		// A failed first capture is retried by the first mutating
		// command's refresh, which reads whatever the base lacks.
		_ = s.refreshGood(context.Background())
	}
	idle := s.srv.cfg.IdleTimeout
	timer := time.NewTimer(idle)
	defer timer.Stop()
	for {
		select {
		case t := <-s.reqs:
			if housekeeping(t.req.Op) {
				// Probes and ILA polls are housekeeping: no latency sample,
				// and crucially no idle-timer reset — a probed or streamed
				// session must still idle out.
				resp, detach := s.handle(t)
				s.fold()
				t.reply(resp)
				if detach {
					s.teardown("board failed and could not be replaced", nil)
					return
				}
				continue
			}
			start := time.Now()
			resp, detach := s.handle(t)
			s.srv.ctr.Latency.Observe(time.Since(start).Microseconds())
			s.srv.ctr.CommandsServed.Inc()
			s.srv.ctr.Commands.Inc()
			s.fold()
			if detach {
				// Acknowledge once the session is unregistered, so a
				// client whose detach returned no longer finds it counted.
				s.teardown("detached by client", func() { t.reply(resp) })
				return
			}
			t.reply(resp)
			s.maybeEmitPaused(t.req.Op)
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(idle)
		case <-timer.C:
			s.srv.ctr.IdleReaped.Inc()
			s.teardown(fmt.Sprintf("idle for %v", idle), nil)
			return
		case <-s.quit:
			s.teardown("server shutdown", nil)
			return
		}
	}
}

// fold brings the registry's cable and injector counters up to date with
// the session's board; the actor calls it after every task, before the
// reply, and once more as it gives up a board.
func (s *session) fold() { s.srv.ctr.fold(s.zs, s.injector.Load(), &s.folded) }

// housekeeping reports whether an op is one of the actor's internal
// housekeeping ops rather than a client command.
func housekeeping(op string) bool {
	return op == opProbe || op == opIlaPoll || op == opHistPoll
}

// teardown closes the session exactly once: it marks the session dead
// (new enqueues fail fast), answers every still-queued command with
// CodeNoSession, unregisters from the server, calls ack if set, and
// closes the underlying zoomie.Session — which pauses the design, stops
// its clocks, and releases the board lease back to the pool.
func (s *session) teardown(reason string, ack func()) {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	for {
		select {
		case t := <-s.reqs:
			t.reply(&wire.Response{ID: t.req.ID,
				Err: wire.Errf(wire.CodeNoSession, "session %d gone: %s", s.id, reason)})
			continue
		default:
		}
		break
	}
	s.srv.dropSession(s)
	if ack != nil {
		ack()
	}
	s.zs.Close()
	s.fold()
	s.srv.hub.Broadcast(&wire.Event{Kind: wire.EvtDetached, Session: s.id, Detail: reason})
}

// maybeEmitPaused watches for the running->paused transition after
// clock-advancing and time-travel commands and pushes a breakpoint-hit
// event to subscribers, so clients observe triggers without polling. It
// reads the paused flag after every such command; the Debug Controller's
// frame is known by then, so the read costs no cable operation. Explicit
// time travel and an explicit pause are their own acknowledgements, and
// raise no event.
func (s *session) maybeEmitPaused(op string) {
	emit := false
	switch op {
	case wire.OpRun, wire.OpUntil, wire.OpStep, wire.OpResume:
		emit = true
	case wire.OpPause, wire.OpHistSeek, wire.OpHistRewind, wire.OpHistRevCont, wire.OpHistLoad:
	default:
		return
	}
	paused, err := s.zs.Paused()
	if err != nil {
		return
	}
	was := s.lastPaused
	s.lastPaused = paused
	if emit && paused && !was {
		cyc, _ := s.zs.Cycles()
		s.srv.hub.Broadcast(&wire.Event{Kind: wire.EvtPaused, Session: s.id, Op: op, Cycles: cyc})
	}
}

// isBoardFailure classifies errors the transport could not recover from —
// the signals that the board, not the command, is at fault.
func isBoardFailure(err error) bool {
	return errors.Is(err, faults.ErrWedged) ||
		errors.Is(err, jtag.ErrRetriesExhausted) ||
		errors.Is(err, jtag.ErrVerify) ||
		errors.Is(err, jtag.ErrDeadline)
}

// handle executes one command against the owned zoomie.Session. On a
// board failure it quarantines and migrates, then re-runs the command
// once on the fresh board. The second result asks the actor to tear the
// session down (client detach, or a board failure with no replacement).
func (s *session) handle(t task) (*wire.Response, bool) {
	if !atomic.CompareAndSwapInt32(&s.busy, 0, 1) {
		s.srv.ctr.Interleaved.Inc()
	}
	defer atomic.StoreInt32(&s.busy, 0)

	resp, detach := s.executeGood(t)
	if resp.Err != nil && resp.Err.Code == wire.CodeBoardFailed {
		if werr := s.migrate(resp.Err.Msg); werr != nil {
			return &wire.Response{ID: t.req.ID, Session: s.id, Err: werr}, true
		}
		resp, detach = s.executeGood(t)
	}
	return resp, detach
}

// executeGood runs one command and, while a fault injector is bound and
// the command may have changed state, refreshes the known-good snapshot
// before the reply goes out. A command that failed after it ran, such as
// an until whose trigger never fired, changed state too; only a board
// failure skips the refresh, since handle migrates and re-executes it. A
// refresh that hits a board failure fails the command like one: the
// known-good snapshot still holds the pre-command state, so migrating
// and re-executing is exact.
func (s *session) executeGood(t task) (*wire.Response, bool) {
	resp, detach := s.execute(t)
	if resp.Err != nil && resp.Err.Code == wire.CodeBoardFailed || detach ||
		housekeeping(t.req.Op) || !Mutating(t.req.Op) || s.injector.Load() == nil {
		return resp, detach
	}
	// Not the issuing connection's context: the snapshot is the session's
	// migration source and must not be left stale by a client going away.
	if err := s.refreshGood(context.Background()); err != nil && isBoardFailure(err) {
		return &wire.Response{ID: t.req.ID, Session: s.id,
			Err: wire.Errf(wire.CodeBoardFailed, "known-good snapshot: %s", err)}, false
	}
	return resp, false
}

// migrate replaces the session's failed board: quarantine the lease,
// close the old session (fail-fast — the transport does not retry a
// wedged board), and land its detached history and the known-good
// snapshot on a fresh board, where the snapshot stays the known-good one.
// The full-scope snapshot carries the Debug Controller registers, so
// armed breakpoints and the pause state survive the move.
func (s *session) migrate(cause string) *wire.Error {
	srv := s.srv
	leaseID := uint64(0)
	if s.lease != nil {
		leaseID = s.lease.ID
		s.lease.Quarantine()
	}
	srv.cfg.Logf("zoomied: session %d: board lease %d quarantined: %s", s.id, leaseID, cause)
	srv.hub.Broadcast(&wire.Event{Kind: wire.EvtQuarantined, Session: s.id,
		Detail: fmt.Sprintf("board lease %d: %s", leaseID, cause)})

	old := s.zs
	oldHist := old.DetachHistory() // history survives the board, not the session
	old.Close()                    // errors expected on a failed board; lease already benched
	s.fold()

	nz, nmeta, ninj, nlease, err := srv.newSessionFor(s.design, oldHist, s.lastGood)
	if err != nil {
		srv.ctr.MigrationsFail.Inc()
		return wire.Errf(wire.CodeBoardFailed,
			"session %d: board failed (%s) and no replacement: %v", s.id, cause, err)
	}
	s.mu.Lock()
	s.zs = nz
	s.lease = nlease
	s.ilaMeta = nmeta
	s.mu.Unlock()
	s.injector.Store(ninj)
	s.folded = cableCounts{}
	srv.ctr.Migrations.Inc()
	srv.cfg.Logf("zoomied: session %d migrated to board lease %d", s.id, nlease.ID)
	srv.hub.Broadcast(&wire.Event{Kind: wire.EvtMigrated, Session: s.id,
		Detail: fmt.Sprintf("restored on board lease %d", nlease.ID)})
	return nil
}

// execute runs one command: the actor's housekeeping ops and detach
// here, every session op through the op table. Board failures come back
// as CodeBoardFailed so handle can migrate and retry.
func (s *session) execute(t task) (*wire.Response, bool) {
	req, ctx := t.req, t.ctx
	resp := &wire.Response{ID: req.ID, Session: s.id}
	var err error
	switch req.Op {
	case opProbe:
		s.srv.ctr.Probes.Inc()
		if err = s.zs.HealthCheck(); err != nil {
			s.srv.ctr.ProbeFailures.Inc()
		}

	case opIlaPoll:
		resp.Trace, err = s.pollILA(ctx)

	case opHistPoll:
		rows, next := s.zs.HistoryKeyframesSince(req.Value)
		resp.Cycles = next
		if len(rows) > 0 {
			resp.Trace = &wire.Trace{Signals: []string{"pos", "cycle", "bytes"}, Rows: rows}
		}

	case wire.OpDetach:
		return resp, true

	default:
		resp, _ = s.Do(ctx, req)
		return resp, false
	}
	if err != nil {
		resp.Err = classify(ctx, err)
	}
	return resp, false
}

// pollILA checks whether the capture window completed; if so it uploads
// it in one planned pass — one readback per SLR, not one cable round trip
// per captured cycle — re-arms the trigger and returns the decoded
// window in the Trace shape the stream layer converts into an EvtStream
// frame. A window still filling returns nil; the ticker asks again.
func (s *session) pollILA(ctx context.Context) (*wire.Trace, error) {
	meta := s.ilaMeta
	if meta == nil {
		return nil, fmt.Errorf("design %q has no ILA", s.design)
	}
	full, err := s.zs.Peek(meta.CtrlPrefix + ".full")
	if err != nil || full == 0 {
		return nil, err
	}
	items := make([]dbg.PlanItem, meta.Depth)
	for i := range items {
		items[i] = dbg.PlanItem{Name: meta.BufferName, Mem: true, Addr: i}
	}
	words, err := s.zs.ReadPlan(ctx, items)
	if err != nil {
		return nil, err
	}
	rows := make([][]uint64, len(words))
	for i, w := range words {
		rows[i] = meta.DecodeVals(w)
	}
	if err := meta.Rearm(s.zs); err != nil {
		return nil, err
	}
	s.srv.ctr.IlaWindows.Inc()
	return &wire.Trace{Signals: meta.ProbeNames(), Rows: rows}, nil
}
