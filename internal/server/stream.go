package server

import (
	"context"
	"sync"
	"time"

	"zoomie/internal/farm"
	"zoomie/internal/obs"
	"zoomie/internal/wire"
)

// Streaming observability (v3): a stream is a server-push channel of
// EvtStream frames multiplexed over the client's ordinary connection.
// The serving layer owns the channel — open, credit and close, the
// credit window, the drop-oldest backlog, the frame counters — and the
// "counters" kind (per-interval deltas of the front end's obs registry,
// aggregated so millions of producer events become a few frames per
// second). A front end adds its own kinds: the daemon streams completed
// ILA capture windows, history keyframes and compile phases; the
// coordinator forwards ILA and history streams from a session's daemon.
//
// Flow control is credit-based, drop-oldest: the client grants N frame
// credits at open and tops them up as it consumes; a frame is only
// queued onto the connection when a credit is available, and a stream
// whose client stalls sheds its oldest pending frames (counted in
// Dropped) instead of stalling the producer. Crucially the producers
// are never the session actors: counter streams read atomics that the
// hot path bumps for free, and ILA and history streams enqueue a
// non-blocking housekeeping poll that the actor serializes with ordinary
// commands — a slow or dead stream consumer can never back-pressure a
// paused-debug interaction.

// streamCredits is the default credit grant when OpStreamOpen carries
// no N; streamPending bounds the per-stream frame backlog (drop-oldest
// beyond it); streamInterval is the default flush/poll cadence.
const (
	streamCredits  = 32
	streamPending  = 64
	streamInterval = 50 * time.Millisecond
)

// Stream is one open push channel on one connection.
type Stream struct {
	id       uint64
	c        *Conn
	interval time.Duration
	quit     chan struct{}
	once     sync.Once
	onStop   func()

	mu      sync.Mutex
	credits int
	pending []*wire.Event
	seq     uint64
	dropped uint64
	// counted is set while pending[0] is counted in the transport but a
	// full outbox refused it: it goes out next, and is counted once.
	counted bool
}

// OnStop sets what stopping the stream releases (a subscription, a
// forwarded stream). It runs once, possibly on the read loop, so it must
// not block. Call it from Frontend.OpenStream.
func (st *Stream) OnStop(f func()) { st.onStop = f }

func (st *Stream) stop() {
	st.once.Do(func() {
		close(st.quit)
		if st.onStop != nil {
			st.onStop()
		}
	})
}

// StreamOp serves the three stream ops — open, credit and close — for a
// front end's Dispatch.
func (c *Conn) StreamOp(req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	if req.Op == wire.OpStreamOpen {
		st, werr := c.openStream(req)
		if werr != nil {
			resp.Err = werr
			return resp
		}
		resp.Stream = st.id
		resp.Session = req.Session
		return resp
	}
	c.streamMu.Lock()
	st := c.streams[req.Stream]
	if req.Op == wire.OpStreamClose {
		delete(c.streams, req.Stream)
	}
	c.streamMu.Unlock()
	if st == nil {
		resp.Err = wire.Errf(wire.CodeNoStream, "no stream %d on this connection", req.Stream)
		return resp
	}
	if req.Op == wire.OpStreamCredit {
		st.addCredits(req.N)
	} else {
		st.stop()
	}
	resp.Stream = st.id
	return resp
}

// openStream builds the stream and its producer, registers it, and
// starts the producer.
func (c *Conn) openStream(req *wire.Request) (*Stream, *wire.Error) {
	st := &Stream{
		c:        c,
		interval: time.Duration(req.Value) * time.Millisecond,
		quit:     make(chan struct{}),
		credits:  req.N,
	}
	if st.interval <= 0 {
		st.interval = streamInterval
	}
	if st.credits <= 0 {
		st.credits = streamCredits
	}
	var produce func() string
	if req.Name == wire.StreamCounters {
		// Primed at open: activity right after the open reply is a delta,
		// not a baseline.
		produce = st.counters(c.h.fe.Reg.NewReader())
	} else {
		var werr *wire.Error
		if produce, werr = c.h.fe.OpenStream(st, req); werr != nil {
			return nil, werr
		}
	}

	c.streamMu.Lock()
	if c.streams == nil {
		c.streamMu.Unlock()
		st.stop()
		return nil, wire.Errf(wire.CodeConnLost, "connection closed")
	}
	c.nextStream++
	st.id = c.nextStream
	c.streams[st.id] = st
	c.streamMu.Unlock()

	c.h.tr.StreamsOpened.Inc()
	c.h.wg.Add(1)
	go func() {
		defer c.h.wg.Done()
		if why := produce(); why != "" {
			st.end(why)
		}
	}()
	return st, nil
}

// end closes a stream whose producer ended on its own: it leaves the
// connection, stops, and sends the client one last frame, outside the
// credit window, whose Detail says why. Frames still waiting for credit
// count as dropped, except one already counted as sent, which goes out
// first. A stream the client or the connection already closed is left
// alone.
func (st *Stream) end(why string) {
	c := st.c
	c.streamMu.Lock()
	mine := c.streams[st.id] == st
	delete(c.streams, st.id)
	c.streamMu.Unlock()
	if !mine {
		return
	}
	st.stop()
	st.mu.Lock()
	var out []*wire.Event
	if st.counted {
		out, st.pending = []*wire.Event{st.pending[0]}, st.pending[1:]
	}
	n := uint64(len(st.pending))
	st.dropped += n
	c.h.tr.StreamDropped.Add(n)
	st.pending = nil
	st.seq++
	out = append(out, &wire.Event{Kind: wire.EvtStream, Stream: st.id, Seq: st.seq, Dropped: st.dropped, Detail: why})
	st.mu.Unlock()
	for _, ev := range out {
		if !c.send(wire.Evt(ev)) {
			return
		}
	}
}

// closeStreams stops every open stream when the connection dies.
func (c *Conn) closeStreams() {
	c.streamMu.Lock()
	streams := c.streams
	c.streams = nil
	c.streamMu.Unlock()
	for _, st := range streams {
		st.stop()
	}
}

// every calls tick at the stream's interval until the stream stops
// (returning "") or tick returns why the stream ends.
func (st *Stream) every(tick func() string) string {
	t := time.NewTicker(st.interval)
	defer t.Stop()
	for {
		select {
		case <-st.quit:
			return ""
		case <-t.C:
			if why := tick(); why != "" {
				return why
			}
		}
	}
}

// counters is the producer of a counters stream: one frame of named
// deltas per interval that saw activity.
func (st *Stream) counters(reader *obs.Reader) func() string {
	var names []string
	var deltas []uint64
	return func() string {
		return st.every(func() string {
			var total uint64
			names, deltas, total = reader.Deltas(names[:0], deltas[:0])
			if total == 0 {
				st.drain() // idle interval: no frame, but retry backlog
				return ""
			}
			// The frame owns copies — the reader reuses its slices.
			st.Offer(&wire.Event{
				Kind:   wire.EvtStream,
				Count:  total,
				Names:  append([]string(nil), names...),
				Deltas: append([]uint64(nil), deltas...),
			})
			return ""
		})
	}
}

// Offer stamps a frame with the stream's id and next sequence number and
// queues it, shedding the oldest pending frame when the backlog is full
// (the one after it, when the oldest is already counted as sent), then
// drains whatever the current credits allow.
func (st *Stream) Offer(ev *wire.Event) {
	st.mu.Lock()
	st.seq++
	ev.Stream, ev.Seq = st.id, st.seq
	if len(st.pending) >= streamPending {
		i := 0
		if st.counted {
			i = 1
		}
		st.pending = append(st.pending[:i], st.pending[i+1:]...)
		st.dropped++
		st.c.h.tr.StreamDropped.Inc()
	}
	st.pending = append(st.pending, ev)
	st.drainLocked()
	st.mu.Unlock()
}

// addCredits tops up the grant and pushes out any backlog it unlocks.
func (st *Stream) addCredits(n int) {
	if n <= 0 {
		n = 1
	}
	st.mu.Lock()
	st.credits += n
	st.drainLocked()
	st.mu.Unlock()
}

// drain retries the backlog without producing a new frame.
func (st *Stream) drain() {
	st.mu.Lock()
	st.drainLocked()
	st.mu.Unlock()
}

// drainLocked moves pending frames into the connection outbox, one
// credit each, stopping when credits run out or the outbox is full (the
// frame stays pending — the next tick or credit retries it). A frame is
// counted before the send, since the peer can receive it the moment it
// is in the outbox; a frame the full outbox refused stays counted, at
// the head of the backlog.
func (st *Stream) drainLocked() {
	tr := st.c.h.tr
	for st.credits > 0 && len(st.pending) > 0 {
		ev := st.pending[0]
		ev.Dropped = st.dropped // latest total travels with every frame
		if !st.counted {
			tr.StreamFrames.Inc()
			tr.StreamEvents.Add(ev.Count)
			st.counted = true
		}
		select {
		case st.c.out <- wire.Evt(ev):
			st.pending[0] = nil
			st.pending = st.pending[1:]
			st.credits--
			st.counted = false
		default:
			return
		}
	}
	if len(st.pending) == 0 {
		st.pending = nil // let the backing array go once drained
	}
}

// openStream admits the daemon's own stream kinds: a session's completed
// ILA capture windows ("ila") and recorded keyframes ("history"), and a
// compile job's phases ("compile").
func (s *Server) openStream(st *Stream, req *wire.Request) (func() string, *wire.Error) {
	switch req.Name {
	case wire.StreamCompile:
		// Session carries the farm job id: compile jobs are a server-wide
		// resource, not a debug session.
		job, ok := s.farm.Job(req.Session)
		if !ok {
			return nil, wire.Errf(wire.CodeOp, "no compile job %d", req.Session)
		}
		// Subscribed at open so no phase entry is missed before the
		// producer starts.
		prog, unsub := job.Subscribe()
		st.OnStop(unsub)
		return func() string { compileFrames(st, prog); return "" }, nil
	case wire.StreamILA, wire.StreamHistory:
	default:
		return nil, wire.Errf(wire.CodeBadRequest,
			"unknown stream kind %q (want %q, %q, %q or %q)",
			req.Name, wire.StreamCounters, wire.StreamILA, wire.StreamHistory, wire.StreamCompile)
	}
	sess := s.session(req.Session)
	if sess == nil {
		return nil, wire.Errf(wire.CodeNoSession, "no session %d", req.Session)
	}
	sess.mu.Lock()
	hasILA := sess.ilaMeta != nil
	sess.mu.Unlock()
	if req.Name == wire.StreamILA {
		if !hasILA {
			return nil, wire.Errf(wire.CodeBadRequest,
				"design %q has no ILA (try the ila-counter design)", sess.design)
		}
		return func() string {
			return st.every(func() string { return ended(sess.poll(st, &wire.Request{Op: opIlaPoll}, nil)) })
		}, nil
	}
	sess.mu.Lock()
	recording := sess.zs.HistoryEnabled()
	sess.mu.Unlock()
	if !recording {
		return nil, wire.Errf(wire.CodeBadRequest,
			"history recording is disabled for design %q", sess.design)
	}
	cur := &histCursor{}
	return func() string { return st.every(func() string { return cur.poll(st, sess) }) }, nil
}

// compileFrames is the producer of a compile stream: event-driven rather
// than polled — the farm job publishes one Progress per phase entry plus
// its terminal state, and each becomes one frame (the phase in
// Names[0]). Backlog and credits behave like every other stream; a
// stalled client sheds oldest phases, never the compile itself.
func compileFrames(st *Stream, prog <-chan farm.Progress) {
	for {
		select {
		case <-st.quit:
			return
		case p := <-prog:
			st.Offer(&wire.Event{
				Kind:    wire.EvtStream,
				Session: p.Job,
				Count:   1,
				Names:   []string{p.Phase},
			})
		}
	}
}

// poll enqueues one housekeeping poll on the session's actor; the
// reply, after done sees it, becomes one frame of its trace rows. A full
// actor queue just skips this round — streaming yields to the client's
// own commands, never the other way around.
func (s *session) poll(st *Stream, req *wire.Request, done func(*wire.Response)) *wire.Error {
	return s.enqueue(context.Background(), req, func(resp *wire.Response) {
		if done != nil {
			done(resp)
		}
		if resp.Err != nil || resp.Trace == nil || len(resp.Trace.Rows) == 0 {
			return
		}
		st.Offer(&wire.Event{
			Kind:    wire.EvtStream,
			Session: s.id,
			Count:   uint64(len(resp.Trace.Rows)),
			Names:   resp.Trace.Signals,
			Rows:    resp.Trace.Rows,
		})
	})
}

// ended returns why a poll's session is gone, or "" while it lives: a
// stream ends with its session.
func ended(werr *wire.Error) string {
	if werr != nil && werr.Code == wire.CodeNoSession {
		return werr.Msg
	}
	return ""
}

// histCursor is a history stream's position: the keyframe generation
// delivered so far, and whether a poll is queued on the actor. The
// cursor only advances in the reply, so a skipped round (full actor
// queue) re-asks for the same window next tick, and a tick that finds a
// poll still queued behind the session's commands skips: two polls from
// one cursor would deliver the same keyframes twice.
type histCursor struct {
	mu      sync.Mutex
	gen     uint64
	polling bool
}

func (h *histCursor) poll(st *Stream, sess *session) string {
	h.mu.Lock()
	if h.polling {
		h.mu.Unlock()
		return ""
	}
	h.polling = true
	gen := h.gen
	h.mu.Unlock()
	werr := sess.poll(st, &wire.Request{Op: opHistPoll, Value: gen}, func(resp *wire.Response) {
		h.mu.Lock()
		h.polling = false
		if resp.Err == nil && resp.Cycles > h.gen {
			h.gen = resp.Cycles
		}
		h.mu.Unlock()
	})
	if werr != nil {
		h.mu.Lock()
		h.polling = false
		h.mu.Unlock()
	}
	return ended(werr)
}
