package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// Internal actor ops, never on the wire (the "fleet." prefix cannot
// collide with wire op names).
const (
	opKick  = "fleet.kick"  // daemon died: fail over now, don't wait for a command
	opDrain = "fleet.drain" // daemon draining: move to another daemon now
)

// fsQueueDepth bounds one session actor's command backlog, matching the
// daemon-side actor; overflow answers CodeBusy.
const fsQueueDepth = 64

// maxFailoverAttempts bounds how many placement rounds a failover tries
// before the session is declared lost.
const maxFailoverAttempts = 40

// fsreq is one queued unit of session work.
type fsreq struct {
	ctx   context.Context
	req   *wire.Request
	reply func(*wire.Response)
}

// fsession is one fleet-level session: a stable identity clients hold
// while its daemon-side incarnation moves between failure domains. One
// actor goroutine owns all forwarding, journaling, checkpointing and
// failover for the session, so a failover can never interleave with a
// command.
type fsession struct {
	co     *Coordinator
	id     uint64 // fleet session id, stable across failovers
	design string

	q    chan *fsreq
	quit chan struct{}
	once sync.Once

	mu         sync.Mutex
	homeD      *daemon
	remoteSID  uint64
	suppressed bool // drop daemon events during journal replay
	stopped    bool

	// The rest is actor-owned. checkpoint is the state blob
	// OpStateExport returned; journal holds the mutating commands run
	// since it, as backend requests.
	checkpoint []byte
	journal    []*wire.Request
	// tried is the journal's length at the last refused checkpoint
	// refresh: the next refresh waits for CheckpointEvery more commands.
	tried int
	// checkpointFailed records that a checkpoint refresh failed and was
	// logged.
	checkpointFailed bool
}

func newFsession(co *Coordinator, id uint64, design string, home *daemon, remoteSID uint64, checkpoint []byte) *fsession {
	return &fsession{
		co:         co,
		id:         id,
		design:     design,
		q:          make(chan *fsreq, fsQueueDepth),
		quit:       make(chan struct{}),
		homeD:      home,
		remoteSID:  remoteSID,
		checkpoint: checkpoint,
	}
}

func (fs *fsession) home() *daemon {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.homeD
}

func (fs *fsession) homeLink() (*daemon, *client.Client, uint64, uint64) {
	fs.mu.Lock()
	d := fs.homeD
	rsid := fs.remoteSID
	fs.mu.Unlock()
	cli, gen := d.client()
	return d, cli, rsid, gen
}

func (fs *fsession) eventsSuppressed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.suppressed
}

func (fs *fsession) setSuppressed(on bool) {
	fs.mu.Lock()
	fs.suppressed = on
	fs.mu.Unlock()
}

// stop terminates the actor. Safe to call more than once.
func (fs *fsession) stop() {
	fs.once.Do(func() {
		fs.mu.Lock()
		fs.stopped = true
		fs.mu.Unlock()
		close(fs.quit)
	})
}

// enqueue hands one request to the actor; a full queue answers CodeBusy
// immediately, exactly like a daemon under command flood.
func (fs *fsession) enqueue(ctx context.Context, req *wire.Request, reply func(*wire.Response)) *wire.Error {
	fs.mu.Lock()
	stopped := fs.stopped
	fs.mu.Unlock()
	if stopped {
		return wire.Errf(wire.CodeNoSession, "no session %d", fs.id)
	}
	select {
	case fs.q <- &fsreq{ctx: ctx, req: req, reply: reply}:
		return nil
	default:
		return wire.Errf(wire.CodeBusy, "session %d command queue full (%d deep)", fs.id, fsQueueDepth)
	}
}

// kick nudges the actor after its home daemon died: best-effort — if
// the queue is full, an in-flight command is already discovering the
// failure and will fail over itself.
func (fs *fsession) kick(gen uint64) {
	select {
	case fs.q <- &fsreq{ctx: context.Background(), req: &wire.Request{Op: opKick, Value: gen}, reply: func(*wire.Response) {}}:
	default:
	}
}

// loop is the session actor.
func (fs *fsession) loop() {
	defer fs.co.wg.Done()
	for {
		select {
		case <-fs.quit:
			return
		case r := <-fs.q:
			fs.handle(r)
		}
	}
}

func (fs *fsession) handle(r *fsreq) {
	req := r.req
	switch req.Op {
	case opKick:
		// Only act if the home link is actually gone; a late kick after
		// a successful failover must not move the session again.
		if _, cli, _, _ := fs.homeLink(); cli != nil {
			return
		}
		if werr := fs.failover(); werr != nil {
			fs.poison(werr)
		}
		return
	case opDrain:
		r.reply(fs.drain(req))
		return
	}

	fs.co.ctr.Commands.Inc()

	if req.Op == wire.OpDetach {
		// Best-effort forward (the daemon frees its board), then the
		// fleet session is gone either way.
		if _, cli, rsid, _ := fs.homeLink(); cli != nil {
			cli.CallCtx(r.ctx, backendReq(req, rsid))
		}
		fs.stop()
		fs.co.dropSession(fs)
		r.reply(&wire.Response{ID: req.ID, Session: fs.id})
		return
	}

	resp := fs.forward(r.ctx, req)
	// A mutating op that failed after it ran, such as an until whose
	// trigger never fired, changed state too, so a failover must replay it.
	if (resp.Err == nil || resp.Err.OpFailed()) && server.Mutating(req.Op) {
		fs.journal = append(fs.journal, backendReq(req, 0))
		if len(fs.journal)-fs.tried >= fs.co.cfg.CheckpointEvery {
			fs.refreshCheckpoint(r.ctx)
		}
	}
	r.reply(resp)
}

// forward sends one command to the session's current home, riding out
// daemon death by failing over and re-executing. It always returns a
// response (possibly an error response), never nil.
func (fs *fsession) forward(ctx context.Context, req *wire.Request) *wire.Response {
	for {
		d, cli, rsid, gen := fs.homeLink()
		if cli == nil {
			if werr := fs.failover(); werr != nil {
				fs.poison(werr)
				return &wire.Response{ID: req.ID, Err: werr}
			}
			continue
		}
		resp, err := cli.CallCtx(ctx, backendReq(req, rsid))
		if err != nil && isConnFailure(err) {
			if ctx.Err() != nil {
				// The *front* connection died mid-command, not the daemon.
				return &wire.Response{ID: req.ID,
					Err: wire.Errf(wire.CodeCancelled, "fleet: %s cancelled: %v", req.Op, ctx.Err())}
			}
			d.reportFailure(gen, err)
			if werr := fs.failover(); werr != nil {
				fs.poison(werr)
				return &wire.Response{ID: req.ID, Err: werr}
			}
			continue // re-execute the in-flight command on the new home
		}
		if resp == nil {
			// Cancellation/timeout produce a bare wire error with no
			// response body; pass the typed code through.
			werr, ok := err.(*wire.Error)
			if !ok {
				werr = wire.Errf(wire.CodeOp, "fleet: %s: %v", req.Op, err)
			}
			resp = &wire.Response{Err: werr}
		}
		out := *resp
		out.ID = req.ID
		if out.Session != 0 {
			out.Session = fs.id
		}
		return &out
	}
}

// failover rebuilds the session after its home daemon died, patiently:
// up to maxFailoverAttempts placement rounds with backoff. The actor
// calls this, so no command can interleave.
func (fs *fsession) failover() *wire.Error {
	start := time.Now()
	backoff := 25 * time.Millisecond
	for attempt := 0; attempt < maxFailoverAttempts; attempt++ {
		if fs.co.isClosed() {
			return wire.Errf(wire.CodeShutdown, "fleet coordinator shutting down")
		}
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff < 800*time.Millisecond {
				backoff *= 2
			}
		}
		old, target, werr := fs.rebuild()
		if werr != nil {
			continue
		}
		fs.co.ctr.Failovers.Inc()
		fs.co.ctr.FailoverNanos.Add(uint64(time.Since(start)))
		fs.moved("failed over", old, target, fmt.Sprintf(" (%d journal replays, %v)",
			len(fs.journal), time.Since(start).Round(time.Millisecond)))
		return nil
	}
	fs.co.ctr.FailoverFail.Inc()
	return wire.Errf(wire.CodeBoardFailed,
		"session %d lost: no healthy daemon accepted it after %d attempts", fs.id, maxFailoverAttempts)
}

// drain moves the session off its draining home daemon in one placement
// attempt: a fresh checkpoint, the failover rebuild, then the release of
// the old incarnation. When the export is refused, the session moves
// from its last checkpoint and journal, exactly as a failover would.
func (fs *fsession) drain(req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID, Session: fs.id}
	_, cli, rsid, _ := fs.homeLink()
	if cli == nil {
		// Home died under us; ordinary failover covers it.
		resp.Err = fs.failover()
		return resp
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fs.refreshCheckpoint(ctx)
	old, target, werr := fs.rebuild()
	if werr != nil {
		resp.Err = werr
		return resp
	}
	// Released best-effort, after the re-home: the old daemon's
	// EvtDetached must not find this session in its remotes map, or the
	// event pump would kill the freshly moved session.
	cli.CallCtx(ctx, &wire.Request{Op: wire.OpDetach, Session: rsid})

	fs.co.ctr.Drains.Inc()
	fs.moved("drained", old, target, "")
	return resp
}

// moved logs a finished move and tells subscribers with a
// session_migrated event.
func (fs *fsession) moved(verb string, old, target *daemon, note string) {
	fs.co.cfg.Logf("zfleet: session %d %s %s -> %s%s", fs.id, verb, old.addr, target.addr, note)
	fs.co.hub.Broadcast(&wire.Event{Kind: wire.EvtMigrated, Session: fs.id,
		Detail: fmt.Sprintf("%s from %s to %s", verb, old.addr, target.addr)})
}

// rebuild lands the session on a placed daemon: import the checkpoint,
// deterministically re-execute the journaled commands since it (their
// events suppressed — clients saw the originals), and re-home. It
// returns the old and new homes, or why no daemon took the session.
func (fs *fsession) rebuild() (old, target *daemon, werr *wire.Error) {
	target, cli, gen := fs.co.place()
	if target == nil {
		return nil, nil, wire.Errf(wire.CodeOverloaded, "no other daemon can take session %d", fs.id)
	}
	fs.setSuppressed(true)
	defer fs.setSuppressed(false)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := cli.CallCtx(ctx, &wire.Request{
		Op: wire.OpStateImport, Design: fs.design, Blob: fs.checkpoint})
	step := "import"
	for i := 0; err == nil && i < len(fs.journal); i++ {
		// An op-level error replays the original run's op-level error:
		// same state either way, keep going.
		if _, jerr := cli.CallCtx(ctx, backendReq(fs.journal[i], resp.Session)); jerr != nil && isConnFailure(jerr) {
			err, step = jerr, "journal replay"
		} else {
			fs.co.ctr.JournalReplays.Inc()
		}
	}
	if err != nil {
		target.unreserve()
		if isConnFailure(err) {
			target.reportFailure(gen, err)
		}
		return nil, nil, wire.Errf(wire.CodeOp, "%s on %s: %v", step, target.addr, err)
	}
	old = fs.home()
	old.removeSession(fs)
	fs.mu.Lock()
	fs.homeD, fs.remoteSID = target, resp.Session
	fs.mu.Unlock()
	target.addSession(fs, resp.Session)
	return old, target, nil
}

// refreshCheckpoint exports the session's current state, replacing the
// checkpoint and clearing the journal. A failed export keeps the old
// checkpoint + journal — still sufficient for a correct failover, but
// each later failover replays more, so every failure is counted and the
// session's first is logged — and the next refresh waits for another
// CheckpointEvery journaled commands.
func (fs *fsession) refreshCheckpoint(ctx context.Context) {
	_, cli, rsid, _ := fs.homeLink()
	if cli == nil {
		return
	}
	blob, err := fs.co.checkpoint(ctx, cli, rsid)
	if err != nil {
		fs.tried = len(fs.journal)
		fs.co.ctr.CheckpointFail.Inc()
		if !fs.checkpointFailed {
			fs.checkpointFailed = true
			fs.co.cfg.Logf("zfleet: session %d keeps its last checkpoint: refresh failed: %v", fs.id, err)
		}
		return
	}
	fs.checkpoint, fs.journal, fs.tried = blob, nil, 0
}

// poison ends a session the fleet could not save: subscribers get a
// detach event and the id stops resolving.
func (fs *fsession) poison(werr *wire.Error) {
	fs.co.cfg.Logf("zfleet: session %d poisoned: %s", fs.id, werr.Msg)
	fs.co.hub.Broadcast(&wire.Event{
		Kind: wire.EvtDetached, Session: fs.id, Detail: werr.Msg,
	})
	fs.stop()
	fs.co.dropSession(fs)
}

// isConnFailure classifies an error from a backend call: true means the
// daemon link itself failed (the client's connection was lost or closed:
// CodeConnLost) rather than the command. Op-level wire errors —
// including timeouts and cancellations — are real answers and are
// returned to the client.
func isConnFailure(err error) bool { return wire.IsCode(err, wire.CodeConnLost) }

// backendReq is the copy of a client's request sent to a daemon: no
// front-connection request id and the daemon-side session id. A shallow
// copy: slices are never mutated downstream.
func backendReq(r *wire.Request, rsid uint64) *wire.Request {
	c := *r
	c.ID, c.Session = 0, rsid
	return &c
}
