package client

import (
	"context"

	"zoomie/internal/wire"
)

// Streams are the client half of v3 streaming observability: after
// OpenStream, the server pushes EvtStream frames — aggregated counter
// deltas or decoded ILA capture windows — which Recv consumes in order.
// Flow control is credit-based: the open grants the server a window of
// frames, and the client tops the grant up as frames are consumed, so a
// stalled consumer makes the server shed old frames (visible in each
// frame's Dropped counter) instead of buffering without bound.

// Stream is one open server-push channel.
type Stream struct {
	c *Client
	// ID is the server-assigned stream id on this connection.
	ID uint64
	// Kind is wire.StreamCounters or wire.StreamILA.
	Kind string

	window int
	ch     chan wire.Event

	// consumed counts frames since the last credit top-up; Recv refills
	// the server's grant every half window so credit traffic amortizes.
	consumed int
}

// OpenStream opens a push stream. kind is wire.StreamCounters (session
// ignored) or wire.StreamILA (session must name an attached ILA-carrying
// design). window is the credit grant — the server never has more than
// this many frames in flight unacknowledged (0 means 32). intervalMS is
// the server-side flush/poll cadence (0 means the server default).
// A stream ends with its connection: Recv then reports closed.
func (c *Client) OpenStream(kind string, session uint64, window, intervalMS int) (*Stream, error) {
	if window <= 0 {
		window = 32
	}
	// Frames for this stream may arrive before the open response is
	// processed (the server's producer starts immediately); the router
	// parks them as orphans while an open is in flight.
	c.mu.Lock()
	c.opensInFlight++
	c.mu.Unlock()
	resp, err := c.call(&wire.Request{
		Op: wire.OpStreamOpen, Name: kind, Session: session,
		N: window, Value: uint64(intervalMS),
	})
	c.mu.Lock()
	c.opensInFlight--
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	st := &Stream{c: c, ID: resp.Stream, Kind: kind, window: window,
		ch: make(chan wire.Event, window)}
	c.streams[st.ID] = st.ch
	for _, ev := range c.orphans[st.ID] {
		c.deliverLocked(ev) // orphan count is bounded by the grant, which fits
	}
	delete(c.orphans, st.ID)
	c.mu.Unlock()
	return st, nil
}

// Recv returns the next frame, blocking until one arrives. ok is false
// once the stream is closed — by Close, by connection loss, or because
// the server ended the stream (its producer's session went away).
func (st *Stream) Recv() (wire.Event, bool) {
	ev, ok := <-st.ch
	if ok {
		st.credit()
	}
	return ev, ok
}

// RecvCtx is Recv bounded by a context; ok is false on close or when
// the context expires (distinguish via ctx.Err()).
func (st *Stream) RecvCtx(ctx context.Context) (wire.Event, bool) {
	select {
	case ev, ok := <-st.ch:
		if ok {
			st.credit()
		}
		return ev, ok
	case <-ctx.Done():
		return wire.Event{}, false
	}
}

// credit tops up the server's grant every half window. The top-up is
// fire-and-forget on a background goroutine: Recv never waits on a
// round trip, and a lost credit just narrows the window until the next.
func (st *Stream) credit() {
	st.consumed++
	if st.consumed < (st.window+1)/2 {
		return
	}
	n := st.consumed
	st.consumed = 0
	go st.c.call(&wire.Request{Op: wire.OpStreamCredit, Stream: st.ID, N: n})
}

// Close stops the stream server-side and releases its local channel.
// Frames already in flight are discarded.
func (st *Stream) Close() error {
	st.c.dropStream(st.ID)
	_, err := st.c.call(&wire.Request{Op: wire.OpStreamClose, Stream: st.ID})
	return err
}

// routeStream delivers one EvtStream frame to its stream's channel.
// Unknown ids are parked while an open is in flight (the response may
// still be in the pipe behind the frame) and dropped otherwise. The
// send stays under c.mu — it never blocks, and serializing it against
// dropStream's close is what makes concurrent Close safe.
func (c *Client) routeStream(ev wire.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.streams[ev.Stream] == nil {
		if c.opensInFlight > 0 && len(c.orphans[ev.Stream]) < cap(c.events) {
			c.orphans[ev.Stream] = append(c.orphans[ev.Stream], ev)
		}
		return
	}
	c.deliverLocked(ev)
}

// deliverLocked hands a frame to its open stream; callers hold c.mu. A
// frame with a Detail is the server's last for the stream, saying why it
// ended: the stream closes instead.
func (c *Client) deliverLocked(ev wire.Event) {
	ch := c.streams[ev.Stream]
	switch {
	case ch == nil: // ended by an earlier frame
	case ev.Detail != "":
		delete(c.streams, ev.Stream)
		close(ch)
	default:
		select {
		case ch <- ev:
		default:
			// The server honors the credit grant, which the buffer matches;
			// an overflow means a misbehaving peer — shed rather than stall.
		}
	}
}

// dropStream unregisters a stream and closes its channel exactly once.
// The close happens under c.mu, where every send also lives.
func (c *Client) dropStream(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := c.streams[id]
	delete(c.streams, id)
	delete(c.orphans, id)
	if ch != nil {
		close(ch)
	}
}

// dropAllStreamsLocked closes every stream channel; callers hold c.mu.
// Used when the connection dies, which ends its server-side streams.
func (c *Client) dropAllStreamsLocked() {
	for id, ch := range c.streams {
		delete(c.streams, id)
		close(ch)
	}
	c.orphans = make(map[uint64][]wire.Event)
}
