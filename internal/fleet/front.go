package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// The coordinator's front end: what zfleet answers differently from a
// daemon. The connection, the hello, the credit-window streams and the
// event broadcast are the daemon's own serving layer (server.Hub); the
// coordinator adds its dispatch switch
// (placement, drain, fleet stat, forwarding to session actors) and its
// forwarded stream kinds.

// dispatch routes one request: fleet-level ops run inline on the read
// loop, session ops are enqueued on the owning session actor. zfleet runs
// no compile farm, so it refuses the compile ops as unknown before it
// looks for a session, whatever session id they carry: forwarded, a
// compile would run on one daemon and, journaled, again on every
// failover replay.
func (co *Coordinator) dispatch(c *server.Conn, req *wire.Request) {
	switch req.Op {
	case wire.OpAttach:
		c.Reply(co.attach(c, req, nil))
	case wire.OpStateImport:
		c.Reply(co.attach(c, req, req.Blob))
	case wire.OpStatus:
		c.Reply(&wire.Response{ID: req.ID, Stats: co.Stats()})
	case wire.OpFleetStat:
		c.Reply(&wire.Response{ID: req.ID, Lines: co.fleetStatLines(), Stats: co.Stats()})
	case wire.OpFleetDrain:
		c.Reply(co.drain(c, req))
	case wire.OpStreamOpen, wire.OpStreamCredit, wire.OpStreamClose:
		c.Reply(c.StreamOp(req))
	case wire.OpCompileSubmit, wire.OpCompileStatus, wire.OpCompileCancel:
		c.Reply(&wire.Response{ID: req.ID,
			Err: wire.Errf(wire.CodeUnknownOp, "unknown op %q (zfleet runs no compile farm)", req.Op)})
	default:
		fs := co.session(req.Session)
		if fs == nil {
			c.Reply(&wire.Response{ID: req.ID,
				Err: wire.Errf(wire.CodeNoSession, "no session %d", req.Session)})
			return
		}
		if werr := fs.enqueue(c.Ctx(), req, c.Reply); werr != nil {
			c.Reply(&wire.Response{ID: req.ID, Err: werr})
		}
	}
}

// shed answers an attach with the typed overload refusal: CodeOverloaded
// plus a retry-after hint in milliseconds in Value. Fast refusal, never
// a hang: a client that retries waits out the hint first.
func (co *Coordinator) shed(req *wire.Request, retryAfterMS int, why string) *wire.Response {
	co.ctr.Sheds.Inc()
	return &wire.Response{ID: req.ID,
		Value: uint64(retryAfterMS),
		Err:   wire.Errf(wire.CodeOverloaded, "fleet over capacity: %s (retry in %dms)", why, retryAfterMS)}
}

// attach admits, places and creates one fleet session. A non-nil blob
// makes it attach-with-state (the client-initiated import path); the
// blob doubles as the session's first checkpoint.
func (co *Coordinator) attach(c *server.Conn, req *wire.Request, blob []byte) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	if co.isClosed() {
		resp.Err = wire.Errf(wire.CodeShutdown, "fleet coordinator shutting down")
		return resp
	}
	if wait := co.admit(); wait > 0 {
		return co.shed(req, wait, "admission rate limit")
	}
	// Existing sessions keep priority: placement only considers spare
	// per-daemon capacity, so a full fleet sheds new admissions while
	// in-flight sessions run undisturbed.
	var lastErr *wire.Error
	for attempt := 0; attempt < len(co.daemons); attempt++ {
		d, cli, gen := co.place()
		if d == nil {
			break
		}
		r2, err := cli.CallCtx(c.Ctx(), backendReq(req, 0))
		if err != nil {
			d.unreserve()
			if isConnFailure(err) {
				d.reportFailure(gen, err)
				continue // try the next-best daemon
			}
			if werr, ok := err.(*wire.Error); ok {
				lastErr = werr
				if werr.Code == wire.CodePoolExhausted {
					continue // daemon's own pool is smaller than our cap
				}
			}
			out := *r2
			out.ID = req.ID
			return &out
		}
		rsid := r2.Session

		// First checkpoint: the import blob when the client brought one,
		// otherwise an immediate export of the fresh session. Without a
		// checkpoint there is no failover, so a failed export releases
		// the session, best effort, and retries placement elsewhere.
		checkpoint := blob
		if checkpoint == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if checkpoint, err = co.checkpoint(ctx, cli, rsid); err != nil {
				cli.CallCtx(ctx, &wire.Request{Op: wire.OpDetach, Session: rsid})
			}
			cancel()
			if err != nil {
				d.unreserve()
				if isConnFailure(err) {
					d.reportFailure(gen, err)
				}
				continue
			}
		}

		co.mu.Lock()
		if co.closed {
			co.mu.Unlock()
			d.unreserve()
			resp.Err = wire.Errf(wire.CodeShutdown, "fleet coordinator shutting down")
			return resp
		}
		co.nextSID++
		fs := newFsession(co, co.nextSID, req.Design, d, rsid, checkpoint)
		co.sessions[fs.id] = fs
		co.mu.Unlock()
		d.addSession(fs, rsid)
		co.wg.Add(1)
		go fs.loop()
		c.Subscribe(fs.id)

		co.ctr.Admissions.Inc()
		co.cfg.Logf("zfleet: session %d placed on %s (daemon session %d)", fs.id, d.addr, rsid)
		out := *r2
		out.ID = req.ID
		out.Session = fs.id
		return &out
	}
	if lastErr != nil && lastErr.Code != wire.CodePoolExhausted {
		resp.Err = lastErr
		return resp
	}
	return co.shed(req, co.cfg.RetryAfterMS, "all daemons at capacity")
}

// drain serves OpFleetDrain: flip a daemon's draining flag and, when
// enabling, migrate its sessions to the rest of the fleet before
// answering — new placements avoid it from the moment the flag flips.
func (co *Coordinator) drain(c *server.Conn, req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	d := co.daemonByAddr(req.Name)
	if d == nil {
		resp.Err = wire.Errf(wire.CodeBadRequest, "no daemon %q in the fleet", req.Name)
		return resp
	}
	d.setDraining(req.Enable)
	if !req.Enable {
		resp.Lines = []string{d.addr + ": draining off"}
		return resp
	}
	sessions := d.homedSessions()
	resp.Lines = append(resp.Lines, d.addr+": draining on")
	var wg sync.WaitGroup
	results := make(chan string, len(sessions))
	for _, fs := range sessions {
		wg.Add(1)
		fs := fs
		werr := fs.enqueue(c.Ctx(), &wire.Request{Op: opDrain}, func(r *wire.Response) {
			if r.Err != nil {
				results <- "session not migrated: " + r.Err.Msg
			} else {
				results <- "session migrated"
			}
			wg.Done()
		})
		if werr != nil {
			results <- "session not migrated: " + werr.Msg
			wg.Done()
		}
	}
	wg.Wait()
	close(results)
	for line := range results {
		resp.Lines = append(resp.Lines, line)
	}
	return resp
}

// openStream forwards ILA and history streams: it opens the matching
// stream on the session's current home daemon and pumps frames through,
// re-stamped with the fleet stream id and session id. A forwarded stream
// ends with its daemon-side stream — its session gone, or its daemon
// (failover does not re-splice a half-consumed capture window); the
// client sees it close and reopens it, and the fresh stream follows the
// session's new home. "counters" streams are the serving layer's own,
// over the coordinator's registry.
func (co *Coordinator) openStream(st *server.Stream, req *wire.Request) (func() string, *wire.Error) {
	if req.Name != wire.StreamILA && req.Name != wire.StreamHistory {
		return nil, wire.Errf(wire.CodeBadRequest,
			"unknown stream kind %q (want %q, %q or %q)",
			req.Name, wire.StreamCounters, wire.StreamILA, wire.StreamHistory)
	}
	fs := co.session(req.Session)
	if fs == nil {
		return nil, wire.Errf(wire.CodeNoSession, "no session %d", req.Session)
	}
	d, cli, rsid, _ := fs.homeLink()
	if cli == nil {
		return nil, wire.Errf(wire.CodeBoardFailed,
			"session %d is failing over; retry the stream open", fs.id)
	}
	back, err := cli.OpenStream(req.Name, rsid, req.N, int(req.Value))
	if err != nil {
		if werr, ok := err.(*wire.Error); ok {
			return nil, werr
		}
		return nil, wire.Errf(wire.CodeOp, "stream open on %s: %v", d.addr, err)
	}
	st.OnStop(func() { go back.Close() }) // a round trip; never on the read loop
	return func() string {
		for {
			ev, ok := back.Recv()
			if !ok {
				return fmt.Sprintf("stream on %s ended", d.addr)
			}
			ev.Session = fs.id
			st.Offer(&ev)
		}
	}, nil
}
