package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"zoomie/internal/obs"
	"zoomie/internal/wire"
)

// The serving layer: everything between a client's socket and a front
// end's dispatch switch. zoomied (Server) and zfleet (fleet.Coordinator)
// both run it, so a client cannot tell which one it dialed: the same
// hello (wire.ServeHello), the same binary codec after it, the same
// outbox and coalesced write loop, subscriptions, event broadcast,
// credit-window streams (stream.go) and transport counters. A front end
// supplies only what differs: its dispatch switch, its stream kinds
// beyond counters, and what a dying connection releases.

// Frontend is a front end's share of the serving layer.
type Frontend struct {
	// Name prefixes the layer's log lines and errors ("zoomied", "zfleet").
	Name string
	Logf func(format string, args ...any)
	// Reg is the registry "counters" streams read.
	Reg *obs.Registry
	// Dispatch serves every request but hello and subscribe. It runs on
	// the connection's read loop and answers through Conn.Reply, inline
	// or later from another goroutine.
	Dispatch func(c *Conn, req *wire.Request)
	// OpenStream admits a stream kind other than counters and returns its
	// producer, which the layer runs on a goroutine of its own. The
	// producer returns "" once the stream stops (see Stream.OnStop), or
	// why it ended on its own, which ends the stream for its client.
	OpenStream func(st *Stream, req *wire.Request) (func() string, *wire.Error)
	// Closed, when set, runs once as a connection dies, after its streams
	// stopped.
	Closed func(c *Conn)
}

// transport holds the counters the serving layer keeps for its front
// end, in a registry of their own named like the front end's ("zoomied."
// or "zfleet." plus the wire.Stats JSON key). Counters streams do not
// read it: a stream's own frames move bytes_out and stream_frames, so
// streaming them would keep every idle counters stream sending.
type transport struct {
	reg           *obs.Registry
	BytesIn       *obs.Counter `obs:"bytes_in"`
	BytesOut      *obs.Counter `obs:"bytes_out"`
	Events        *obs.Counter `obs:"events"`
	EventsDropped *obs.Counter `obs:"events_dropped"`
	StreamsOpened *obs.Counter `obs:"streams_opened"`
	StreamFrames  *obs.Counter `obs:"stream_frames"`
	StreamEvents  *obs.Counter `obs:"stream_events"`
	StreamDropped *obs.Counter `obs:"stream_dropped"`
}

func newTransport(prefix string) *transport {
	tr := &transport{reg: obs.NewRegistry()}
	tr.reg.Bind(prefix, tr)
	return tr
}

// Hub is a running serving layer: the accept loop, the live
// connections and the transport counters of one front end.
type Hub struct {
	fe Frontend
	wg *sync.WaitGroup // the front end's: its shutdown waits for the layer's goroutines too
	tr *transport

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*Conn]struct{}
	closed bool
}

// NewHub builds the serving layer of one front end. Connection loops and
// stream producers are counted in wg.
func NewHub(fe Frontend, wg *sync.WaitGroup) *Hub {
	return &Hub{fe: fe, wg: wg, tr: newTransport(fe.Name + "."), conns: make(map[*Conn]struct{})}
}

// Serve accepts connections until Close (returns nil) or a listener
// error.
func (h *Hub) Serve(ln net.Listener) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		ln.Close()
		return fmt.Errorf("%s: already shut down", h.fe.Name)
	}
	h.ln = ln
	h.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			h.mu.Lock()
			closed := h.closed
			h.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := newConn(h, nc)
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			nc.Close()
			return nil
		}
		h.conns[c] = struct{}{}
		h.mu.Unlock()
		h.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// Close stops accepting, offers every subscribed connection the bye
// event, and closes every connection. It does not wait: the front end's
// wait group does. Idempotent.
func (h *Hub) Close(bye *wire.Event) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	ln := h.ln
	h.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	h.Broadcast(bye)
	for _, c := range h.live() {
		c.markDead()
	}
}

// live snapshots the connections.
func (h *Hub) live() []*Conn {
	h.mu.Lock()
	defer h.mu.Unlock()
	conns := make([]*Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	return conns
}

// Broadcast pushes an event to every subscribed connection. Delivery is
// best-effort: a connection with a full outbox drops the event (counted)
// rather than stalling the emitter.
func (h *Hub) Broadcast(e *wire.Event) {
	h.tr.Events.Inc()
	m := wire.Evt(e)
	for _, c := range h.live() {
		if !c.wants(e.Session) {
			continue
		}
		select {
		case c.out <- m:
		default:
			h.tr.EventsDropped.Inc()
		}
	}
}

// FillStats sets out's transport fields from the transport counters.
func (h *Hub) FillStats(out *wire.Stats) { fillStats(out, h.tr.reg, h.fe.Name+".") }

// Conn is one client connection: a read loop dispatching requests and a
// write loop owning the socket's send side, joined by the out channel.
type Conn struct {
	h  *Hub
	nc net.Conn
	// out queues frames for the write loop, which flushes whatever is
	// queued in one Write. Its 256 slots absorb a burst of replies and
	// events; when it is full, events drop (counted), stream frames stay
	// pending and replies wait.
	out chan *wire.Message
	wmu sync.Mutex // serializes socket writes (writeLoop vs handshake)

	// enc/dec speak the binary codec every frame after the JSON hello
	// uses. enc is guarded by wmu; dec is owned by the read loop.
	enc *wire.Encoder
	dec *wire.Decoder

	// ctx is cancelled when the connection dies, so work a front end runs
	// for this client stops promptly instead of finishing for nobody.
	ctx    context.Context
	cancel context.CancelFunc

	dead chan struct{}
	once sync.Once

	subMu  sync.Mutex
	subs   map[uint64]bool
	subAll bool

	// streams are this connection's open push channels; ids are
	// per-connection, assigned at OpStreamOpen. Nil once the connection
	// died.
	streamMu   sync.Mutex
	streams    map[uint64]*Stream
	nextStream uint64

	// jobs are the compile-farm references the daemon holds for this
	// connection, released when the connection dies.
	jobs jobRefs
}

func newConn(h *Hub, nc net.Conn) *Conn {
	ctx, cancel := context.WithCancel(context.Background())
	return &Conn{
		h:       h,
		nc:      nc,
		out:     make(chan *wire.Message, 256),
		enc:     wire.NewEncoder(nc, wire.Version),
		dec:     wire.NewDecoder(nc, wire.Version),
		ctx:     ctx,
		cancel:  cancel,
		dead:    make(chan struct{}),
		subs:    make(map[uint64]bool),
		streams: make(map[uint64]*Stream),
	}
}

// Ctx is cancelled when the connection dies.
func (c *Conn) Ctx() context.Context { return c.ctx }

// Reply queues a response for the write loop, giving up if the
// connection died — responses to a vanished client are dropped.
func (c *Conn) Reply(resp *wire.Response) { c.send(wire.Resp(resp)) }

// send queues m for the write loop, waiting for room; it reports false
// if the connection died first.
func (c *Conn) send(m *wire.Message) bool {
	select {
	case c.out <- m:
		return true
	case <-c.dead:
		return false
	}
}

// Subscribe routes a session's events to this connection; session 0
// subscribes to every session.
func (c *Conn) Subscribe(sid uint64) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if sid == 0 {
		c.subAll = true
		return
	}
	c.subs[sid] = true
}

func (c *Conn) wants(sid uint64) bool {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return c.subAll || sid == 0 || c.subs[sid]
}

// markDead closes the connection exactly once: it cancels its context,
// releases both loops, stops its streams and runs the front end's
// Closed hook.
func (c *Conn) markDead() {
	c.once.Do(func() {
		c.cancel()
		close(c.dead)
		c.nc.Close()
		c.closeStreams()
		if c.h.fe.Closed != nil {
			c.h.fe.Closed(c)
		}
	})
}

// writeLoop owns the socket's send side. It coalesces writev-style:
// after taking one message it drains whatever else is already queued
// (bounded by the encoder buffer) and flushes the whole burst with a
// single Write — a batch of responses or an event storm costs one
// syscall instead of one per frame.
func (c *Conn) writeLoop() {
	defer c.h.wg.Done()
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

// writeBurst queues m plus any backlog already in the out channel, then
// flushes once.
func (c *Conn) writeBurst(m *wire.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := c.enc.Queue(m)
	for err == nil {
		select {
		case next := <-c.out:
			err = c.enc.Queue(next)
		default:
			n, ferr := c.enc.Flush()
			c.h.tr.BytesOut.Add(uint64(n))
			return ferr
		}
	}
	return err
}

func (c *Conn) readLoop() {
	h := c.h
	defer h.wg.Done()
	defer func() {
		c.markDead()
		h.mu.Lock()
		delete(h.conns, c)
		h.mu.Unlock()
	}()

	if !c.handshake() {
		return
	}
	for {
		m, n, err := c.dec.Next()
		h.tr.BytesIn.Add(uint64(n))
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				h.fe.Logf("%s: read error: %v", h.fe.Name, err)
			}
			return
		}
		if m.T != wire.TReq {
			c.Reply(&wire.Response{
				Err: wire.Errf(wire.CodeBadRequest, "clients send requests, got %q", m.T)})
			continue
		}
		switch req := m.Req; req.Op {
		case wire.OpHello:
			c.Reply(&wire.Response{ID: req.ID, Version: wire.Version})
		case wire.OpSubscribe:
			c.Subscribe(req.Session)
			c.Reply(&wire.Response{ID: req.ID, Session: req.Session})
		default:
			h.fe.Dispatch(c, req)
		}
	}
}

// handshake serves the hello that opens the connection.
func (c *Conn) handshake() bool {
	h := c.h
	write := func(m *wire.Message) {
		c.wmu.Lock()
		n, _ := wire.WriteMessage(c.nc, m) // a dead socket fails the next read
		c.wmu.Unlock()
		h.tr.BytesOut.Add(uint64(n))
	}
	n, ok := wire.ServeHello(c.nc, write)
	h.tr.BytesIn.Add(uint64(n))
	return ok
}
