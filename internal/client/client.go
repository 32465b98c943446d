// Package client is the Go client library for zoomied, Zoomie's remote
// debug server. Dial connects and performs the protocol handshake;
// Attach leases a design and returns a Session mirroring the facade's
// zoomie.Session API, so code (and the cmd/zoomie REPL) can drive a
// board across the network exactly as it would in-process. Requests are
// correlated by id, so multiple goroutines may share one Client, and
// unsolicited server events (breakpoint hits, idle detaches) surface on
// the Events channel.
//
// The client is built to survive the network: every request carries the
// server-assigned client identity plus a sequence number, and with
// Options.AutoReconnect a severed TCP connection is redialed, the
// identity re-presented, subscriptions restored, and in-flight requests
// replayed. The server dedupes replays by (client, seq), so a command
// whose response was lost in transit is answered from cache instead of
// executing twice — calls block through the outage and complete as if
// the cable had never been unplugged.
package client

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"zoomie/internal/wire"
)

// Options tunes a Client beyond the Dial defaults.
type Options struct {
	// CallTimeout bounds how long a call waits for its response. Zero
	// means wait forever. Expired calls fail with a *wire.Error of code
	// CodeTimeout; the request may still execute server-side.
	CallTimeout time.Duration
	// AutoReconnect redials a severed connection, replays in-flight
	// requests, and restores event subscriptions. Calls block through the
	// outage instead of failing.
	AutoReconnect bool
	// MaxRedials bounds reconnection attempts per outage (default 10).
	MaxRedials int
	// RedialBackoff is the initial delay between redials, doubled up to
	// 16x each attempt (default 50ms).
	RedialBackoff time.Duration
	// Dial overrides the transport dialer (default net.Dial). This is the
	// fault-injection seam: the fleet coordinator routes its daemon links
	// through a faults.DaemonInjector here so kills, partitions and
	// latency spikes are exercised deterministically.
	Dial func(network, addr string) (net.Conn, error)
}

func (o Options) withDefaults() Options {
	if o.MaxRedials <= 0 {
		o.MaxRedials = 10
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 50 * time.Millisecond
	}
	if o.Dial == nil {
		o.Dial = net.Dial
	}
	return o
}

// pcall is one in-flight request: the frame itself (kept for replay
// after a reconnect) and the channel its caller waits on.
type pcall struct {
	req *wire.Request
	ch  chan *wire.Response
}

// Client is one connection to a zoomied server.
type Client struct {
	addr string
	opts Options

	writeMu sync.Mutex // serializes frame writes (and guards enc)
	mu      sync.Mutex // guards conn, nextID, nextSeq, clientID, pending, subs, err, closed
	c       net.Conn
	// enc/dec speak the binary codec every frame after the hello uses.
	// enc is guarded by writeMu; dec is owned by readLoop, which is also
	// the goroutine that re-points both at a replacement connection.
	enc     *wire.Encoder
	dec     *wire.Decoder
	nextID  uint64
	nextSeq uint64
	// clientID is the server-assigned identity presented again on
	// reconnect so the server can dedupe replayed requests.
	clientID uint64
	pending  map[uint64]*pcall
	subs     map[uint64]bool // sessions this connection is subscribed to
	subAll   bool
	err      error
	closed   bool

	events chan wire.Event

	// Streaming state (v3): open stream channels by server-assigned id,
	// frames parked for streams whose open response is still in flight,
	// and the count of such in-flight opens. All guarded by mu.
	streams       map[uint64]chan wire.Event
	orphans       map[uint64][]wire.Event
	opensInFlight int
}

// Dial connects to a zoomied server with default options (no call
// timeout, no auto-reconnect).
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to a zoomied server and performs the version
// handshake.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{
		addr:    addr,
		opts:    opts.withDefaults(),
		pending: make(map[uint64]*pcall),
		subs:    make(map[uint64]bool),
		events:  make(chan wire.Event, 64),
		streams: make(map[uint64]chan wire.Event),
		orphans: make(map[uint64][]wire.Event),
	}
	nc, cid, err := handshake(c.opts.Dial, addr, 0)
	if err != nil {
		return nil, err
	}
	c.c = nc
	c.clientID = cid
	c.nextID = 1
	c.enc = wire.NewEncoder(nc, wire.Version)
	c.dec = wire.NewDecoder(nc, wire.Version)
	go c.readLoop()
	return c, nil
}

// handshake dials and performs the hello exchange, presenting an
// existing client identity when reconnecting (cid != 0). It returns the
// connection and the server-assigned identity.
func handshake(dial func(network, addr string) (net.Conn, error), addr string, cid uint64) (net.Conn, uint64, error) {
	nc, err := dial("tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (net.Conn, uint64, error) {
		nc.Close()
		return nil, 0, err
	}
	// Handshake runs before the reader goroutine: one frame out, one in.
	hello := &wire.Request{ID: 1, Op: wire.OpHello, Version: wire.Version, Client: cid}
	if _, err := wire.WriteMessage(nc, wire.Req(hello)); err != nil {
		return fail(fmt.Errorf("client: handshake: %w", err))
	}
	m, _, err := wire.ReadMessage(nc)
	if err != nil {
		return fail(fmt.Errorf("client: handshake: %w", err))
	}
	if m.T != wire.TResp {
		return fail(fmt.Errorf("client: handshake: unexpected %q frame", m.T))
	}
	if m.Resp.Err != nil {
		return fail(m.Resp.Err)
	}
	if m.Resp.Version != wire.Version {
		return fail(fmt.Errorf("client: server speaks protocol %d, want %d", m.Resp.Version, wire.Version))
	}
	id := m.Resp.Client
	if id == 0 {
		id = cid
	}
	return nc, id, nil
}

// Close tears down the connection. In-flight calls fail; server-side
// sessions survive until their idle timeout reclaims them (detach
// explicitly for immediate reclaim).
func (c *Client) Close() error {
	c.mu.Lock()
	nc := c.c
	c.mu.Unlock()
	c.fail(fmt.Errorf("client: closed"))
	return nc.Close()
}

// ClientID returns the server-assigned client identity (for tests and
// diagnostics).
func (c *Client) ClientID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clientID
}

// Events returns the asynchronous server notifications (breakpoint
// pauses, session detaches, shutdown). The channel is buffered; if the
// consumer falls behind the server drops, not blocks.
func (c *Client) Events() <-chan wire.Event { return c.events }

// conn snapshots the current connection.
func (c *Client) conn() net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.c
}

// readLoop dispatches responses to their waiting callers and events to
// the events channel. It is the only sender on events, so it alone
// closes the channel when the client dies for good; with AutoReconnect
// it survives connection loss by redialing and replaying.
func (c *Client) readLoop() {
	defer close(c.events)
	for {
		m, _, err := c.dec.Next()
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("client: connection closed by server")
			}
			c.mu.Lock()
			dead := c.closed
			c.mu.Unlock()
			if dead || !c.opts.AutoReconnect || !c.reconnect(err) {
				c.fail(err)
				return
			}
			continue
		}
		switch m.T {
		case wire.TResp:
			c.mu.Lock()
			p := c.pending[m.Resp.ID]
			delete(c.pending, m.Resp.ID)
			c.mu.Unlock()
			if p != nil {
				p.ch <- m.Resp
			}
		case wire.TEvt:
			if m.Evt.Kind == wire.EvtStream && m.Evt.Stream != 0 {
				c.routeStream(*m.Evt)
				continue
			}
			select {
			case c.events <- *m.Evt:
			default: // consumer is behind; drop rather than stall the reader
			}
		}
	}
}

// reconnect redials after a severed connection: fresh TCP connection,
// hello presenting the existing client identity, subscriptions restored,
// and every in-flight request re-sent with its original id and sequence
// number (the server's replay cache dedupes any that already executed).
// Returns false when the outage could not be bridged.
func (c *Client) reconnect(cause error) bool {
	backoff := c.opts.RedialBackoff
	for attempt := 0; attempt < c.opts.MaxRedials; attempt++ {
		time.Sleep(backoff)
		if backoff < 16*c.opts.RedialBackoff {
			backoff *= 2
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return false
		}
		cid := c.clientID
		c.mu.Unlock()

		nc, newID, err := handshake(c.opts.Dial, c.addr, cid)
		if err != nil {
			continue
		}

		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			nc.Close()
			return false
		}
		c.c = nc
		c.clientID = newID
		// Server-side stream state died with the old connection; close the
		// local halves so consumers reopen on the fresh one.
		c.dropAllStreamsLocked()
		replay := make([]*wire.Request, 0, len(c.pending))
		for _, p := range c.pending {
			replay = append(replay, p.req)
		}
		resubs := make([]uint64, 0, len(c.subs))
		for sid := range c.subs {
			resubs = append(resubs, sid)
		}
		subAll := c.subAll
		c.mu.Unlock()

		// Re-point both codec halves at the replacement connection.
		// reconnect runs on the readLoop goroutine, so resetting dec here
		// cannot race a concurrent Next.
		c.dec.Reset(nc)

		// Restore event delivery, then replay what was in flight, as one
		// coalesced burst. The resubscribe responses reuse retired ids, so
		// the reader drops them as unmatched — exactly what we want.
		c.writeMu.Lock()
		c.enc.Reset(nc)
		ok := true
		if subAll {
			ok = c.rawQueue(&wire.Request{Op: wire.OpSubscribe, Session: 0})
		}
		for _, sid := range resubs {
			ok = ok && c.rawQueue(&wire.Request{Op: wire.OpSubscribe, Session: sid})
		}
		for _, req := range replay {
			ok = ok && c.rawQueue(req)
		}
		if ok {
			_, err := c.enc.Flush()
			ok = err == nil
		}
		c.writeMu.Unlock()
		if !ok {
			continue // the fresh connection died already; redial
		}
		return true
	}
	return false
}

// rawQueue stages one frame on the encoder without flushing. Callers
// hold writeMu and flush the accumulated burst themselves.
func (c *Client) rawQueue(req *wire.Request) bool {
	if req.ID == 0 {
		c.mu.Lock()
		c.nextID++
		req.ID = c.nextID
		c.mu.Unlock()
	}
	return c.enc.Queue(wire.Req(req)) == nil
}

// fail poisons the client: every pending and future call returns err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.err = err
	for id, p := range c.pending {
		delete(c.pending, id)
		close(p.ch)
	}
	c.dropAllStreamsLocked()
	c.c.Close() // unblocks readLoop, which then closes events
}

// call sends one request and waits for its response. Protocol-level
// failures poison the client (or, with AutoReconnect, block until the
// connection is restored and the request replayed); op-level failures
// and expired call timeouts return *wire.Error.
func (c *Client) call(req *wire.Request) (*wire.Response, error) {
	return c.callCtx(context.Background(), req)
}

// callCtx is call under a context: cancellation abandons the wait
// promptly with a CodeCancelled wire error (which unwraps to
// context.Canceled, so errors.Is matches the local debugger's
// cancellation behavior). A call whose context is already done is never
// sent; one cancelled in flight may still execute server-side.
// On an op-level failure the response is returned alongside the error,
// so callers can pick partial-batch values out of it.
func (c *Client) callCtx(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	// A call cancelled before it starts never reaches the wire, as on the
	// cable: it takes no id or sequence number, and no reply can race the
	// cancellation.
	if err := ctx.Err(); err != nil {
		return nil, cancelled(req.Op, err)
	}
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	c.nextSeq++
	req.ID = c.nextID
	req.Client = c.clientID
	req.Seq = c.nextSeq
	p := &pcall{req: req, ch: make(chan *wire.Response, 1)}
	c.pending[req.ID] = p
	c.mu.Unlock()

	c.writeMu.Lock()
	werr := c.enc.Queue(wire.Req(req))
	if werr == nil {
		_, werr = c.enc.Flush()
	}
	c.writeMu.Unlock()
	if werr != nil && !c.opts.AutoReconnect {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		c.fail(fmt.Errorf("client: write: %w", werr))
		return nil, werr
	}
	// On a failed write with AutoReconnect the request stays pending: the
	// reader notices the dead connection and replays it after redialing.

	var timeout <-chan time.Time
	if c.opts.CallTimeout > 0 {
		t := time.NewTimer(c.opts.CallTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case resp, ok := <-p.ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = wire.Errf(wire.CodeConnLost, "client: connection lost")
			}
			return nil, err
		}
		if resp.Err != nil {
			return resp, resp.Err
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, cancelled(req.Op, ctx.Err())
	case <-timeout:
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, wire.Errf(wire.CodeTimeout,
			"client: no response to %s within %v", req.Op, c.opts.CallTimeout)
	}
}

// cancelled is the CodeCancelled error a call cancelled by its context
// returns.
func cancelled(op string, err error) *wire.Error {
	return wire.Errf(wire.CodeCancelled, "client: %s cancelled: %v", op, err)
}

// CallCtx sends one raw wire request under a context — Call with
// cancellation.
func (c *Client) CallCtx(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	return c.callCtx(ctx, req)
}

// Call sends one raw wire request and returns its response — the escape
// hatch for ops the typed Session API doesn't cover (or for driving a
// session attached by another connection, addressed via req.Session).
func (c *Client) Call(req *wire.Request) (*wire.Response, error) {
	return c.call(req)
}

// ServerStats fetches the server-wide counters.
func (c *Client) ServerStats() (*wire.Stats, error) {
	resp, err := c.call(&wire.Request{Op: wire.OpStatus})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// SubscribeAll turns on event delivery for every session on the server,
// not just the ones this client attached.
func (c *Client) SubscribeAll() error {
	_, err := c.call(&wire.Request{Op: wire.OpSubscribe, Session: 0})
	if err == nil {
		c.mu.Lock()
		c.subAll = true
		c.mu.Unlock()
	}
	return err
}

// Subscribe turns on event delivery for one session (attaching already
// subscribes the attaching connection).
func (c *Client) Subscribe(sid uint64) error {
	_, err := c.call(&wire.Request{Op: wire.OpSubscribe, Session: sid})
	if err == nil {
		c.noteSub(sid)
	}
	return err
}

func (c *Client) noteSub(sid uint64) {
	c.mu.Lock()
	c.subs[sid] = true
	c.mu.Unlock()
}

// Attach leases a board for a catalog design and returns the remote
// debugging session.
func (c *Client) Attach(design string) (*Session, error) {
	return c.AttachCtx(context.Background(), design)
}

// AttachCtx is Attach under a context. With AutoReconnect on, an
// admission-control shed (CodeOverloaded) is not fatal: the attach is
// retried after the server's retry-after hint plus jittered exponential
// backoff, bounded by MaxRedials — load spikes delay attaches instead of
// failing them, matching how connection loss is absorbed. Without
// AutoReconnect the typed error surfaces immediately (and unwraps to
// dberr.ErrOverloaded).
func (c *Client) AttachCtx(ctx context.Context, design string) (*Session, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.callCtx(ctx, &wire.Request{Op: wire.OpAttach, Design: design})
		if err != nil {
			if c.opts.AutoReconnect && attempt < c.opts.MaxRedials && wire.IsCode(err, wire.CodeOverloaded) {
				select {
				case <-time.After(overloadBackoff(resp, attempt, c.opts.RedialBackoff)):
					continue
				case <-ctx.Done():
					return nil, wire.Errf(wire.CodeCancelled, "client: attach cancelled: %v", ctx.Err())
				}
			}
			return nil, err
		}
		// Attach subscribes this connection server-side; remember that so a
		// reconnect restores the subscription on the replacement connection.
		c.noteSub(resp.Session)
		return &Session{
			c:       c,
			ID:      resp.Session,
			Design:  resp.Design,
			Device:  resp.Device,
			Report:  resp.Report,
			Watches: resp.Watches,
		}, nil
	}
}

// overloadBackoff turns a shed response into a wait: the server's
// retry-after hint in milliseconds (Response.Value, which travels with
// the CodeOverloaded error), doubled per attempt, plus up to 50% random
// jitter so a thundering herd of shed clients spreads out instead of
// re-colliding on the same tick.
func overloadBackoff(resp *wire.Response, attempt int, fallback time.Duration) time.Duration {
	base := fallback
	if resp != nil && resp.Value > 0 {
		base = time.Duration(resp.Value) * time.Millisecond
	}
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << uint(attempt)
	if max := 5 * time.Second; d > max {
		d = max
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// AttachWithState is attach-with-state (v3+): build a brand-new session
// for the design on the server and restore it from an exported state
// blob — snapshot, breakpoints, pause state and time-travel history
// intact. This is the landing half of cross-daemon failover; the blob
// comes from Session.StateExport on the session's previous home.
func (c *Client) AttachWithState(ctx context.Context, design string, blob []byte) (*Session, error) {
	resp, err := c.callCtx(ctx, &wire.Request{Op: wire.OpStateImport, Design: design, Blob: blob})
	if err != nil {
		return nil, err
	}
	c.noteSub(resp.Session)
	return &Session{
		c:       c,
		ID:      resp.Session,
		Design:  resp.Design,
		Device:  resp.Device,
		Report:  resp.Report,
		Watches: resp.Watches,
	}, nil
}
