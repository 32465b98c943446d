package fleet

import (
	"context"
	"errors"
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
	opKick    = "fleet.kick"    // daemon died: fail over now, don't wait for a command
	opMigrate = "fleet.migrate" // drain: move to another daemon with a live export
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
	homeGen    uint64
	checkpoint []byte // the state blob OpStateExport returned
	journal    []*wire.Request
	suppressed bool // drop daemon events during journal replay
	stopped    bool

	// replay answers front-client reconnect replays; actor-owned.
	replay server.ReplayCache
	// checkpointFailed records that a checkpoint refresh failed and was
	// logged; actor-owned.
	checkpointFailed bool
}

func newFsession(co *Coordinator, id uint64, design string, home *daemon, remoteSID, gen uint64, checkpoint []byte) *fsession {
	return &fsession{
		co:         co,
		id:         id,
		design:     design,
		q:          make(chan *fsreq, fsQueueDepth),
		quit:       make(chan struct{}),
		homeD:      home,
		remoteSID:  remoteSID,
		homeGen:    gen,
		checkpoint: checkpoint,
		replay:     server.NewReplayCache(co.hub),
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

func (fs *fsession) setHome(d *daemon, remoteSID, gen uint64) {
	fs.mu.Lock()
	fs.homeD = d
	fs.remoteSID = remoteSID
	fs.homeGen = gen
	fs.mu.Unlock()
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
	case opMigrate:
		r.reply(fs.migrate(req))
		return
	}

	if resp := fs.replay.Hit(req); resp != nil {
		r.reply(resp)
		return
	}
	fs.co.ctr.Commands.Inc()

	if req.Op == wire.OpDetach {
		// Best-effort forward (the daemon frees its board), then the
		// fleet session is gone either way.
		resp := fs.forwardOnce(r.ctx, req)
		if resp == nil || resp.Err != nil {
			resp = &wire.Response{ID: req.ID, Session: fs.id}
		}
		fs.stop()
		fs.co.dropSession(fs)
		r.reply(resp)
		return
	}

	resp := fs.forward(r.ctx, req)
	fs.replay.Store(req, resp)
	// A mutating op that failed after it ran, such as an until whose
	// trigger never fired, changed state too, so a failover must replay it.
	if (resp.Err == nil || resp.Err.OpFailed()) && server.Mutating(req.Op) {
		fs.mu.Lock()
		fs.journal = append(fs.journal, copyReq(req))
		n := len(fs.journal)
		fs.mu.Unlock()
		if n >= fs.co.cfg.CheckpointEvery {
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
		fwd := copyReq(req)
		fwd.ID, fwd.Client, fwd.Seq = 0, 0, 0
		fwd.Session = rsid
		resp, err := cli.CallCtx(ctx, fwd)
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

// forwardOnce sends without failover (detach teardown).
func (fs *fsession) forwardOnce(ctx context.Context, req *wire.Request) *wire.Response {
	_, cli, rsid, _ := fs.homeLink()
	if cli == nil {
		return nil
	}
	fwd := copyReq(req)
	fwd.ID, fwd.Client, fwd.Seq = 0, 0, 0
	fwd.Session = rsid
	resp, err := cli.CallCtx(ctx, fwd)
	if resp == nil && err != nil {
		return nil
	}
	out := *resp
	out.ID = req.ID
	if out.Session != 0 {
		out.Session = fs.id
	}
	return &out
}

// failover rebuilds the session on a healthy daemon: import the last
// checkpoint, deterministically re-execute the journaled commands since
// it (their events suppressed — clients saw the originals), and re-home.
// The actor calls this, so no command can interleave.
func (fs *fsession) failover() *wire.Error {
	start := time.Now()
	fs.setSuppressed(true)
	defer fs.setSuppressed(false)

	fs.mu.Lock()
	checkpoint := fs.checkpoint
	journal := fs.journal
	fs.mu.Unlock()

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
		target := fs.co.place(nil)
		if target == nil {
			continue
		}
		cli, gen := target.client()
		if cli == nil {
			target.unreserve()
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		resp, err := cli.CallCtx(ctx, &wire.Request{
			Op: wire.OpStateImport, Design: fs.design, Blob: checkpoint})
		if err != nil {
			cancel()
			target.unreserve()
			if isConnFailure(err) {
				target.reportFailure(gen, err)
			}
			continue
		}
		rsid := resp.Session
		replayOK := true
		for _, j := range journal {
			fwd := copyReq(j)
			fwd.ID, fwd.Client, fwd.Seq = 0, 0, 0
			fwd.Session = rsid
			if _, jerr := cli.CallCtx(ctx, fwd); jerr != nil && isConnFailure(jerr) {
				target.reportFailure(gen, jerr)
				replayOK = false
				break
			}
			// An op-level error replays the original run's op-level error:
			// same state either way, keep going.
			fs.co.ctr.JournalReplays.Inc()
		}
		cancel()
		if !replayOK {
			target.unreserve()
			continue
		}

		old := fs.home()
		old.removeSession(fs)
		fs.setHome(target, rsid, gen)
		target.addSession(fs, rsid)

		fs.co.ctr.Failovers.Inc()
		fs.co.ctr.FailoverNanos.Add(uint64(time.Since(start)))
		fs.co.cfg.Logf("zfleet: session %d failed over %s -> %s (%d journal replays, %v)",
			fs.id, old.addr, target.addr, len(journal), time.Since(start).Round(time.Millisecond))
		fs.co.hub.Broadcast(&wire.Event{
			Kind:    wire.EvtMigrated,
			Session: fs.id,
			Detail:  fmt.Sprintf("failed over from %s to %s", old.addr, target.addr),
		})
		return nil
	}
	fs.co.ctr.FailoverFail.Inc()
	return wire.Errf(wire.CodeBoardFailed,
		"session %d lost: no healthy daemon accepted it after %d attempts", fs.id, maxFailoverAttempts)
}

// migrate is the drain path: the home daemon is alive, so take a fresh
// export (no journal replay needed), import it elsewhere, release the
// old incarnation.
func (fs *fsession) migrate(req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID, Session: fs.id}
	oldD, cli, rsid, gen := fs.homeLink()
	if cli == nil {
		// Home died under us; ordinary failover covers it.
		if werr := fs.failover(); werr != nil {
			resp.Err = werr
		}
		return resp
	}
	target := fs.co.place(oldD)
	if target == nil {
		resp.Err = wire.Errf(wire.CodeOverloaded, "no other daemon can take session %d", fs.id)
		return resp
	}
	tcli, tgen := target.client()
	if tcli == nil {
		target.unreserve()
		resp.Err = wire.Errf(wire.CodeOverloaded, "no other daemon can take session %d", fs.id)
		return resp
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	exp, err := cli.CallCtx(ctx, &wire.Request{Op: wire.OpStateExport, Session: rsid})
	if err != nil {
		target.unreserve()
		if isConnFailure(err) {
			oldD.reportFailure(gen, err)
		}
		resp.Err = wire.Errf(wire.CodeOp, "drain export: %v", err)
		return resp
	}
	imp, err := tcli.CallCtx(ctx, &wire.Request{
		Op: wire.OpStateImport, Design: fs.design, Blob: exp.Blob})
	if err != nil {
		target.unreserve()
		if isConnFailure(err) {
			target.reportFailure(tgen, err)
		}
		resp.Err = wire.Errf(wire.CodeOp, "drain import: %v", err)
		return resp
	}
	// Re-home before releasing the old incarnation: the old daemon's
	// EvtDetached must not find this session in the remotes map, or the
	// event pump would kill the freshly migrated session.
	oldD.removeSession(fs)
	fs.setHome(target, imp.Session, tgen)
	target.addSession(fs, imp.Session)
	fs.mu.Lock()
	fs.checkpoint = exp.Blob
	fs.journal = nil
	fs.mu.Unlock()

	// Old incarnation released best-effort; its board returns to the
	// daemon's pool.
	cli.CallCtx(ctx, &wire.Request{Op: wire.OpDetach, Session: rsid})

	fs.co.ctr.Drains.Inc()
	fs.co.cfg.Logf("zfleet: session %d drained %s -> %s", fs.id, oldD.addr, target.addr)
	fs.co.hub.Broadcast(&wire.Event{
		Kind:    wire.EvtMigrated,
		Session: fs.id,
		Detail:  fmt.Sprintf("drained from %s to %s", oldD.addr, target.addr),
	})
	return resp
}

// refreshCheckpoint exports the session's current state, replacing the
// checkpoint and clearing the journal. A failed export keeps the old
// checkpoint + journal — still sufficient for a correct failover, but
// each later failover replays more, so every failure is counted and the
// session's first is logged.
func (fs *fsession) refreshCheckpoint(ctx context.Context) {
	_, cli, rsid, _ := fs.homeLink()
	if cli == nil {
		return
	}
	resp, err := cli.CallCtx(ctx, &wire.Request{Op: wire.OpStateExport, Session: rsid})
	if err == nil && len(resp.Blob) == 0 {
		err = errors.New("empty state blob")
	}
	if err != nil {
		fs.co.ctr.CheckpointFail.Inc()
		if !fs.checkpointFailed {
			fs.checkpointFailed = true
			fs.co.cfg.Logf("zfleet: session %d keeps its last checkpoint: refresh failed: %v", fs.id, err)
		}
		return
	}
	fs.mu.Lock()
	fs.checkpoint = resp.Blob
	fs.journal = nil
	fs.mu.Unlock()
	fs.co.ctr.Checkpoints.Inc()
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
// daemon link itself failed (poisoned client, lost connection) rather
// than the command. Op-level wire errors — including timeouts and
// cancellations — are real answers and are returned to the client.
func isConnFailure(err error) bool {
	if werr, ok := err.(*wire.Error); ok {
		return werr.Code == wire.CodeConnLost
	}
	return true
}

// copyReq shallow-copies a request (slices are never mutated downstream).
func copyReq(r *wire.Request) *wire.Request {
	c := *r
	return &c
}
