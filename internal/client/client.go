// Package client is the Go client library for zoomied, Zoomie's remote
// debug server. Dial connects and performs the protocol handshake;
// Attach leases a design and returns a Session mirroring the facade's
// zoomie.Session API, so code (and the cmd/zoomie REPL) can drive a
// board across the network exactly as it would in-process. Requests are
// correlated by id, so multiple goroutines may share one Client, and
// unsolicited server events (breakpoint hits, idle detaches) surface on
// the Events channel.
//
// A lost connection fails fast: every pending and later call returns a
// *wire.Error of code CodeConnLost, and open streams close. The session
// outlives the connection on the server until its idle timeout, so a
// fresh connection can go on driving it by id (Client.Call with
// Request.Session).
package client

import (
	"context"
	"fmt"
	"io"
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
	// Dial overrides the transport dialer (default net.Dial). This is the
	// fault-injection seam: the fleet coordinator routes its daemon links
	// through a faults.DaemonInjector here so kills, partitions and
	// latency spikes are exercised deterministically.
	Dial func(network, addr string) (net.Conn, error)
}

// Client is one connection to a zoomied server.
type Client struct {
	callTimeout time.Duration

	writeMu sync.Mutex // serializes frame writes (and guards enc)
	mu      sync.Mutex // guards nextID, pending, err, closed
	c       net.Conn
	// enc/dec speak the binary codec every frame after the hello uses.
	// enc is guarded by writeMu; dec is owned by readLoop.
	enc     *wire.Encoder
	dec     *wire.Decoder
	nextID  uint64
	pending map[uint64]chan *wire.Response // by request id
	err     error
	closed  bool

	events chan wire.Event

	// Streaming state (v3): open stream channels by server-assigned id,
	// frames parked for streams whose open response is still in flight,
	// and the count of such in-flight opens. All guarded by mu.
	streams       map[uint64]chan wire.Event
	orphans       map[uint64][]wire.Event
	opensInFlight int
}

// Dial connects to a zoomied server with default options (no call
// timeout).
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to a zoomied server and performs the version
// handshake.
func DialOptions(addr string, opts Options) (*Client, error) {
	dial := opts.Dial
	if dial == nil {
		dial = net.Dial
	}
	nc, err := handshake(dial, addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		callTimeout: opts.CallTimeout,
		c:           nc,
		enc:         wire.NewEncoder(nc, wire.Version),
		dec:         wire.NewDecoder(nc, wire.Version),
		nextID:      1,
		pending:     make(map[uint64]chan *wire.Response),
		events:      make(chan wire.Event, 64),
		streams:     make(map[uint64]chan wire.Event),
		orphans:     make(map[uint64][]wire.Event),
	}
	go c.readLoop()
	return c, nil
}

// handshake dials and performs the hello exchange.
func handshake(dial func(network, addr string) (net.Conn, error), addr string) (net.Conn, error) {
	nc, err := dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (net.Conn, error) {
		nc.Close()
		return nil, err
	}
	// Handshake runs before the reader goroutine: one frame out, one in.
	hello := &wire.Request{ID: 1, Op: wire.OpHello, Version: wire.Version}
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
	return nc, nil
}

// Close tears down the connection. In-flight and later calls fail with
// CodeConnLost; server-side sessions survive until their idle timeout
// reclaims them (detach explicitly for immediate reclaim).
func (c *Client) Close() error {
	c.fail(wire.Errf(wire.CodeConnLost, "client: closed"))
	return c.c.Close()
}

// Events returns the asynchronous server notifications (breakpoint
// pauses, session detaches, shutdown). The channel is buffered; if the
// consumer falls behind the server drops, not blocks.
func (c *Client) Events() <-chan wire.Event { return c.events }

// readLoop dispatches responses to their waiting callers and events to
// the events channel. It is the only sender on events, so it alone
// closes the channel, once the connection is gone.
func (c *Client) readLoop() {
	defer close(c.events)
	for {
		m, _, err := c.dec.Next()
		if err != nil {
			why := err.Error()
			if err == io.EOF {
				why = "closed by server"
			}
			c.fail(wire.Errf(wire.CodeConnLost, "client: connection lost: %s", why))
			return
		}
		switch m.T {
		case wire.TResp:
			c.mu.Lock()
			ch := c.pending[m.Resp.ID]
			delete(c.pending, m.Resp.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- m.Resp
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

// fail poisons the client: every pending and future call returns err, a
// CodeConnLost error.
func (c *Client) fail(err *wire.Error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.err = err
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.dropAllStreamsLocked()
	c.c.Close() // unblocks readLoop, which then closes events
}

// call sends one request and waits for its response. A lost connection
// poisons the client: the call and every later one fail with
// CodeConnLost. Op-level failures and expired call timeouts return
// *wire.Error too.
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
	// cable: it takes no id, and no reply can race the cancellation.
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
	req.ID = c.nextID
	ch := make(chan *wire.Response, 1)
	c.pending[req.ID] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	werr := c.enc.Queue(wire.Req(req))
	if werr == nil {
		_, werr = c.enc.Flush()
	}
	c.writeMu.Unlock()
	if werr != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		err := wire.Errf(wire.CodeConnLost, "client: write: %v", werr)
		c.fail(err)
		return nil, err
	}

	var timeout <-chan time.Time
	if c.callTimeout > 0 {
		t := time.NewTimer(c.callTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
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
			"client: no response to %s within %v", req.Op, c.callTimeout)
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
	return err
}

// Subscribe turns on event delivery for one session (attaching already
// subscribes the attaching connection).
func (c *Client) Subscribe(sid uint64) error {
	_, err := c.call(&wire.Request{Op: wire.OpSubscribe, Session: sid})
	return err
}

// Attach leases a board for a catalog design and returns the remote
// debugging session.
func (c *Client) Attach(design string) (*Session, error) {
	return c.AttachCtx(context.Background(), design)
}

// AttachCtx is Attach under a context. An admission-control shed
// surfaces as a *wire.Error of code CodeOverloaded (it unwraps to
// dberr.ErrOverloaded); the shed response's Value carries the server's
// retry-after hint in milliseconds, which a raw Call of OpAttach returns.
func (c *Client) AttachCtx(ctx context.Context, design string) (*Session, error) {
	resp, err := c.callCtx(ctx, &wire.Request{Op: wire.OpAttach, Design: design})
	if err != nil {
		return nil, err
	}
	return &Session{
		c:       c,
		ID:      resp.Session,
		Design:  resp.Design,
		Device:  resp.Device,
		Report:  resp.Report,
		Watches: resp.Watches,
	}, nil
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
	return &Session{
		c:       c,
		ID:      resp.Session,
		Design:  resp.Design,
		Device:  resp.Device,
		Report:  resp.Report,
		Watches: resp.Watches,
	}, nil
}
