package fleet

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"zoomie/internal/wire"
)

// fconn is one client connection to the coordinator. It mirrors the
// daemon's connection machinery — the same hello (wire.ServeHello), the
// same binary codec after it, the same outbox/write-loop split — so
// every existing client (the REPL, internal/client, zbench) speaks to
// the fleet without knowing it.
type fconn struct {
	co  *Coordinator
	c   net.Conn
	out chan *wire.Message
	wmu sync.Mutex

	enc *wire.Encoder
	dec *wire.Decoder

	ctx    context.Context
	cancel context.CancelFunc
	dead   chan struct{}
	once   sync.Once

	subMu  sync.Mutex
	subs   map[uint64]bool
	subAll bool

	streamMu   sync.Mutex
	streams    map[uint64]*fstream
	nextStream uint64
}

func newFconn(co *Coordinator, c net.Conn) *fconn {
	ctx, cancel := context.WithCancel(context.Background())
	return &fconn{
		co:      co,
		c:       c,
		out:     make(chan *wire.Message, 256),
		enc:     wire.NewEncoder(c, wire.Version),
		dec:     wire.NewDecoder(c, wire.Version),
		ctx:     ctx,
		cancel:  cancel,
		dead:    make(chan struct{}),
		subs:    make(map[uint64]bool),
		streams: make(map[uint64]*fstream),
	}
}

func (c *fconn) markDead() {
	c.once.Do(func() {
		c.cancel()
		close(c.dead)
		c.c.Close()
		c.closeStreams()
	})
}

func (c *fconn) send(m *wire.Message) {
	select {
	case c.out <- m:
	case <-c.dead:
	}
}

func (c *fconn) subscribe(sid uint64) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if sid == 0 {
		c.subAll = true
		return
	}
	c.subs[sid] = true
}

func (c *fconn) wants(sid uint64) bool {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return c.subAll || sid == 0 || c.subs[sid]
}

func (c *fconn) writeLoop() {
	defer c.co.wg.Done()
	for {
		select {
		case <-c.dead:
			return
		case m := <-c.out:
			if err := c.writeBurst(m); err != nil {
				c.markDead()
				return
			}
		}
	}
}

func (c *fconn) writeBurst(m *wire.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := c.enc.Queue(m)
	for err == nil {
		select {
		case next := <-c.out:
			err = c.enc.Queue(next)
		default:
			_, ferr := c.enc.Flush()
			return ferr
		}
	}
	return err
}

func (c *fconn) readLoop() {
	defer c.co.wg.Done()
	defer func() {
		c.markDead()
		c.co.mu.Lock()
		delete(c.co.conns, c)
		c.co.mu.Unlock()
	}()

	if !c.handshake() {
		return
	}
	for {
		m, _, err := c.dec.Next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.co.cfg.Logf("zfleet: read error: %v", err)
			}
			return
		}
		if m.T != wire.TReq {
			c.send(wire.Resp(&wire.Response{
				Err: wire.Errf(wire.CodeBadRequest, "clients send requests, got %q", m.T)}))
			continue
		}
		c.dispatch(m.Req)
	}
}

// handshake serves the hello exactly as a daemon does, so a client
// cannot tell whether it dialed a daemon or the fleet.
func (c *fconn) handshake() bool {
	write := func(m *wire.Message) {
		c.wmu.Lock()
		wire.WriteMessage(c.c, m) // a dead socket fails the next read
		c.wmu.Unlock()
	}
	_, ok := wire.ServeHello(c.c, write, func(cid uint64) uint64 {
		if cid == 0 {
			c.co.mu.Lock()
			c.co.nextCID++
			cid = c.co.nextCID
			c.co.mu.Unlock()
		}
		return cid
	})
	return ok
}

// dispatch routes one request: fleet-level ops run inline on the read
// loop, session ops are enqueued on the owning session actor.
func (c *fconn) dispatch(req *wire.Request) {
	switch req.Op {
	case wire.OpHello:
		c.send(wire.Resp(&wire.Response{ID: req.ID, Version: wire.Version}))
	case wire.OpAttach:
		c.send(wire.Resp(c.attach(req, nil)))
	case wire.OpStateImport:
		c.send(wire.Resp(c.attach(req, req.Signals)))
	case wire.OpStatus:
		c.send(wire.Resp(&wire.Response{ID: req.ID, Stats: c.co.Stats()}))
	case wire.OpSubscribe:
		c.subscribe(req.Session)
		c.send(wire.Resp(&wire.Response{ID: req.ID, Session: req.Session}))
	case wire.OpFleetStat:
		c.send(wire.Resp(&wire.Response{ID: req.ID,
			Lines: c.co.fleetStatLines(), Stats: c.co.Stats()}))
	case wire.OpFleetDrain:
		c.send(wire.Resp(c.drain(req)))
	case wire.OpStreamOpen, wire.OpStreamCredit, wire.OpStreamClose:
		c.send(wire.Resp(c.handleStream(req)))
	default:
		fs := c.co.session(req.Session)
		if fs == nil {
			c.send(wire.Resp(&wire.Response{ID: req.ID,
				Err: wire.Errf(wire.CodeNoSession, "no session %d", req.Session)}))
			return
		}
		if werr := fs.enqueue(c.ctx, req, func(resp *wire.Response) {
			c.send(wire.Resp(resp))
		}); werr != nil {
			c.send(wire.Resp(&wire.Response{ID: req.ID, Err: werr}))
		}
	}
}

// shed answers an attach with the typed overload refusal: CodeOverloaded
// plus a retry-after hint in milliseconds in Value. Fast refusal, never
// a hang — a client with auto-reconnect backs off and retries.
func (c *fconn) shed(req *wire.Request, retryAfterMS int, why string) *wire.Response {
	c.co.ctr.sheds.Inc()
	return &wire.Response{ID: req.ID,
		Value: uint64(retryAfterMS),
		Err:   wire.Errf(wire.CodeOverloaded, "fleet over capacity: %s (retry in %dms)", why, retryAfterMS)}
}

// attach admits, places and creates one fleet session. A non-nil blob
// makes it attach-with-state (the client-initiated import path); the
// blob doubles as the session's first checkpoint.
func (c *fconn) attach(req *wire.Request, blob []string) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	if c.co.isClosed() {
		resp.Err = wire.Errf(wire.CodeShutdown, "fleet coordinator shutting down")
		return resp
	}
	if wait := c.co.admit(); wait > 0 {
		return c.shed(req, wait, "admission rate limit")
	}
	// Existing sessions keep priority: placement only considers spare
	// per-daemon capacity, so a full fleet sheds new admissions while
	// in-flight sessions run undisturbed.
	var lastErr *wire.Error
	for attempt := 0; attempt < len(c.co.daemons); attempt++ {
		d := c.co.place(nil)
		if d == nil {
			break
		}
		cli, gen := d.client()
		if cli == nil {
			d.unreserve()
			continue
		}
		fwd := copyReq(req)
		fwd.ID, fwd.Client, fwd.Seq = 0, 0, 0
		r2, err := cli.CallCtx(c.ctx, fwd)
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
		// checkpoint there is no failover, so a failed export retries
		// placement elsewhere.
		checkpoint := blob
		if checkpoint == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			exp, eerr := cli.CallCtx(ctx, &wire.Request{Op: wire.OpStateExport, Session: rsid})
			cancel()
			if eerr != nil {
				d.unreserve()
				if isConnFailure(eerr) {
					d.reportFailure(gen, eerr)
				}
				continue
			}
			if len(exp.Lines) == 0 {
				d.unreserve()
				continue
			}
			checkpoint = exp.Lines
			c.co.ctr.checkpoints.Inc()
		}

		c.co.mu.Lock()
		if c.co.closed {
			c.co.mu.Unlock()
			d.unreserve()
			resp.Err = wire.Errf(wire.CodeShutdown, "fleet coordinator shutting down")
			return resp
		}
		c.co.nextSID++
		fs := newFsession(c.co, c.co.nextSID, req.Design, d, rsid, gen, checkpoint)
		c.co.sessions[fs.id] = fs
		c.co.mu.Unlock()
		d.addSession(fs, rsid)
		c.co.wg.Add(1)
		go fs.loop()
		c.subscribe(fs.id)

		c.co.ctr.admissions.Inc()
		c.co.cfg.Logf("zfleet: session %d placed on %s (daemon session %d)", fs.id, d.addr, rsid)
		out := *r2
		out.ID = req.ID
		out.Session = fs.id
		return &out
	}
	if lastErr != nil && lastErr.Code != wire.CodePoolExhausted {
		resp.Err = lastErr
		return resp
	}
	return c.shed(req, c.co.cfg.RetryAfterMS, "all daemons at capacity")
}

// drain serves OpFleetDrain: flip a daemon's draining flag and, when
// enabling, migrate its sessions to the rest of the fleet before
// answering — new placements avoid it from the moment the flag flips.
func (c *fconn) drain(req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	d := c.co.daemonByAddr(req.Name)
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
		werr := fs.enqueue(c.ctx, &wire.Request{Op: opMigrate}, func(r *wire.Response) {
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
