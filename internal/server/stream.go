package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"zoomie"
	"zoomie/internal/farm"
	"zoomie/internal/obs"
	"zoomie/internal/wire"
)

// Streaming observability (v3): a stream is a server-push channel of
// EvtStream frames multiplexed over the client's ordinary connection.
// Two kinds exist — "counters" (per-interval deltas of the server-wide
// obs registry, aggregated so millions of producer events become a few
// frames per second) and "ila" (completed ILA capture windows, uploaded
// in one batched readback and re-armed so windows arrive back-to-back).
//
// Flow control is credit-based, drop-oldest: the client grants N frame
// credits at open and tops them up as it consumes; the server only
// queues a frame onto the connection when a credit is available, and a
// stream whose client stalls sheds its oldest pending frames (counted
// in Dropped) instead of stalling the producer. Crucially the producers
// are never the session actors: counter streams read atomics that the
// hot path bumps for free, and ILA streams enqueue a non-blocking
// housekeeping poll that the actor serializes with ordinary commands —
// a slow or dead stream consumer can never back-pressure a paused-debug
// interaction.

// streamCredits is the default credit grant when OpStreamOpen carries
// no N; streamPending bounds the per-stream frame backlog (drop-oldest
// beyond it); streamInterval is the default flush/poll cadence.
const (
	streamCredits  = 32
	streamPending  = 64
	streamInterval = 50 * time.Millisecond
)

// stream is one open push channel on one connection.
type stream struct {
	id   uint64
	kind string // wire.StreamCounters, StreamILA, StreamHistory or StreamCompile
	c    *conn
	sess *session        // ILA and history streams only
	meta *zoomie.ILAMeta // ILA streams only

	// Compile streams subscribe to a farm job's progress at open so no
	// phase entry is missed between open and the producer loop starting.
	prog  <-chan farm.Progress
	unsub func()
	// Counters streams prime their reader at open for the same reason:
	// activity right after the open reply is a delta, not a baseline.
	reader *obs.Reader

	interval time.Duration
	quit     chan struct{}
	once     sync.Once

	mu      sync.Mutex
	credits int
	pending []*wire.Event
	seq     uint64
	dropped uint64
	gen     uint64 // history streams: keyframe generation cursor
	polling bool   // history streams: a poll is queued on the actor
}

func (st *stream) stop() { st.once.Do(func() { close(st.quit) }) }

// handleStream serves the three v3 stream ops inline on the read loop.
func (c *conn) handleStream(req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	switch req.Op {
	case wire.OpStreamOpen:
		st, werr := c.openStream(req)
		if werr != nil {
			resp.Err = werr
			return resp
		}
		resp.Stream = st.id
		resp.Session = req.Session
	case wire.OpStreamCredit:
		st := c.stream(req.Stream)
		if st == nil {
			resp.Err = wire.Errf(wire.CodeNoStream, "no stream %d on this connection", req.Stream)
			return resp
		}
		st.addCredits(req.N)
		resp.Stream = st.id
	case wire.OpStreamClose:
		st := c.takeStream(req.Stream)
		if st == nil {
			resp.Err = wire.Errf(wire.CodeNoStream, "no stream %d on this connection", req.Stream)
			return resp
		}
		st.stop()
		resp.Stream = st.id
	}
	return resp
}

// openStream validates the request and spawns the stream's goroutine.
func (c *conn) openStream(req *wire.Request) (*stream, *wire.Error) {
	st := &stream{
		kind:     req.Name,
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
	switch req.Name {
	case wire.StreamCounters:
		// Server-wide counters; no session needed.
		st.reader = c.srv.reg.NewReader()
	case wire.StreamILA:
		sess := c.srv.session(req.Session)
		if sess == nil {
			return nil, wire.Errf(wire.CodeNoSession, "no session %d", req.Session)
		}
		sess.mu.Lock()
		meta := sess.ilaMeta
		sess.mu.Unlock()
		if meta == nil {
			return nil, wire.Errf(wire.CodeBadRequest,
				"design %q has no ILA (try the ila-counter design)", sess.design)
		}
		st.sess, st.meta = sess, meta
	case wire.StreamHistory:
		sess := c.srv.session(req.Session)
		if sess == nil {
			return nil, wire.Errf(wire.CodeNoSession, "no session %d", req.Session)
		}
		sess.mu.Lock()
		enabled := sess.zs.HistoryEnabled()
		sess.mu.Unlock()
		if !enabled {
			return nil, wire.Errf(wire.CodeBadRequest,
				"history recording is disabled for design %q", sess.design)
		}
		st.sess = sess
	case wire.StreamCompile:
		// Session carries the farm job id: compile jobs are a server-wide
		// resource, not a debug session.
		job, ok := c.srv.farm.Job(req.Session)
		if !ok {
			return nil, wire.Errf(wire.CodeOp, "no compile job %d", req.Session)
		}
		st.prog, st.unsub = job.Subscribe()
	default:
		return nil, wire.Errf(wire.CodeBadRequest,
			"unknown stream kind %q (want %q, %q, %q or %q)",
			req.Name, wire.StreamCounters, wire.StreamILA, wire.StreamHistory, wire.StreamCompile)
	}

	c.streamMu.Lock()
	c.nextStream++
	st.id = c.nextStream
	c.streams[st.id] = st
	c.streamMu.Unlock()

	atomic.AddInt64(&c.srv.stats.streamsOpened, 1)
	c.srv.wg.Add(1)
	go st.run()
	return st, nil
}

// stream looks up an open stream by id.
func (c *conn) stream(id uint64) *stream {
	c.streamMu.Lock()
	defer c.streamMu.Unlock()
	return c.streams[id]
}

// takeStream removes and returns a stream (close path).
func (c *conn) takeStream(id uint64) *stream {
	c.streamMu.Lock()
	defer c.streamMu.Unlock()
	st := c.streams[id]
	delete(c.streams, id)
	return st
}

// closeStreams tears down every open stream when the connection dies.
func (c *conn) closeStreams() {
	c.streamMu.Lock()
	streams := make([]*stream, 0, len(c.streams))
	for _, st := range c.streams {
		streams = append(streams, st)
	}
	c.streams = make(map[uint64]*stream)
	c.streamMu.Unlock()
	for _, st := range streams {
		st.stop()
	}
}

// run is the stream's producer loop: one ticker, one flush per tick.
func (st *stream) run() {
	defer st.c.srv.wg.Done()
	if st.kind == wire.StreamCompile {
		st.runCompile()
		return
	}
	t := time.NewTicker(st.interval)
	defer t.Stop()

	var names []string
	var deltas []uint64
	for {
		select {
		case <-st.quit:
			return
		case <-st.c.dead:
			return
		case <-t.C:
			switch st.kind {
			case wire.StreamCounters:
				var total uint64
				names, deltas, total = st.reader.Deltas(names[:0], deltas[:0])
				if total == 0 {
					st.drain() // idle interval: no frame, but retry backlog
					continue
				}
				// The frame owns copies — the reader reuses its slices.
				st.offer(&wire.Event{
					Kind:   wire.EvtStream,
					Stream: st.id,
					Count:  total,
					Names:  append([]string(nil), names...),
					Deltas: append([]uint64(nil), deltas...),
				})
			case wire.StreamILA:
				if !st.pollILA() {
					return // session gone; the stream dies with it
				}
			case wire.StreamHistory:
				if !st.pollHistory() {
					return // session gone; the stream dies with it
				}
			}
		}
	}
}

// runCompile is the producer loop for compile streams: event-driven
// rather than polled — the farm job publishes one Progress per phase
// entry plus its terminal state, and each becomes one frame (the phase
// in Names[0]). Backlog and credits behave like every other stream; a
// stalled client sheds oldest phases, never the compile itself.
func (st *stream) runCompile() {
	defer st.unsub()
	for {
		select {
		case <-st.quit:
			return
		case <-st.c.dead:
			return
		case p := <-st.prog:
			st.offer(&wire.Event{
				Kind:    wire.EvtStream,
				Stream:  st.id,
				Session: p.Job,
				Count:   1,
				Names:   []string{p.Phase},
			})
		}
	}
}

// pollILA enqueues the non-blocking housekeeping poll on the session
// actor; the actor uploads and re-arms a completed window and the reply
// callback converts it into a stream frame. Returns false once the
// session is gone. A full actor queue just skips this round — streaming
// yields to the client's own commands, never the other way around.
func (st *stream) pollILA() bool {
	werr := st.sess.enqueue(context.Background(),
		&wire.Request{Op: opIlaPoll}, func(resp *wire.Response) {
			if resp.Err != nil || resp.Trace == nil || len(resp.Trace.Rows) == 0 {
				return
			}
			st.offer(&wire.Event{
				Kind:    wire.EvtStream,
				Stream:  st.id,
				Session: st.sess.id,
				Count:   uint64(len(resp.Trace.Rows)),
				Names:   resp.Trace.Signals,
				Rows:    resp.Trace.Rows,
			})
		})
	if werr != nil && werr.Code == wire.CodeNoSession {
		return false
	}
	return true
}

// pollHistory enqueues the history housekeeping poll: the actor collects
// keyframes recorded since this stream's generation cursor and the reply
// becomes one scrubbing frame of [pos, cycle, bytes] rows. The cursor
// only advances in the reply, so a skipped round (full actor queue)
// re-asks for the same window next tick, and a tick that finds a poll
// still queued behind the session's commands skips: two polls from one
// cursor would deliver the same keyframes twice.
func (st *stream) pollHistory() bool {
	st.mu.Lock()
	if st.polling {
		st.mu.Unlock()
		return true
	}
	st.polling = true
	gen := st.gen
	st.mu.Unlock()
	werr := st.sess.enqueue(context.Background(),
		&wire.Request{Op: opHistPoll, Value: gen}, func(resp *wire.Response) {
			st.mu.Lock()
			st.polling = false
			if resp.Err == nil && resp.Cycles > st.gen {
				st.gen = resp.Cycles
			}
			st.mu.Unlock()
			if resp.Err != nil || resp.Trace == nil || len(resp.Trace.Rows) == 0 {
				return
			}
			st.offer(&wire.Event{
				Kind:    wire.EvtStream,
				Stream:  st.id,
				Session: st.sess.id,
				Count:   uint64(len(resp.Trace.Rows)),
				Names:   resp.Trace.Signals,
				Rows:    resp.Trace.Rows,
			})
		})
	if werr != nil {
		st.mu.Lock()
		st.polling = false
		st.mu.Unlock()
		if werr.Code == wire.CodeNoSession {
			return false
		}
	}
	return true
}

// offer queues one frame, shedding the oldest pending frame when the
// backlog is full, then drains whatever the current credits allow.
func (st *stream) offer(ev *wire.Event) {
	st.mu.Lock()
	st.seq++
	ev.Seq = st.seq
	if len(st.pending) >= streamPending {
		copy(st.pending, st.pending[1:])
		st.pending = st.pending[:len(st.pending)-1]
		st.dropped++
		atomic.AddInt64(&st.c.srv.stats.streamDropped, 1)
	}
	st.pending = append(st.pending, ev)
	st.drainLocked()
	st.mu.Unlock()
}

// addCredits tops up the grant and pushes out any backlog it unlocks.
func (st *stream) addCredits(n int) {
	if n <= 0 {
		n = 1
	}
	st.mu.Lock()
	st.credits += n
	st.drainLocked()
	st.mu.Unlock()
}

// drain retries the backlog without producing a new frame.
func (st *stream) drain() {
	st.mu.Lock()
	st.drainLocked()
	st.mu.Unlock()
}

// drainLocked moves pending frames into the connection outbox, one
// credit each, stopping when credits run out or the outbox is full (the
// frame stays pending — the next tick or credit retries it). A frame is
// counted before the send, since the peer can receive it the moment it
// is in the outbox; a send the full outbox refuses takes its count back.
func (st *stream) drainLocked() {
	stats := &st.c.srv.stats
	for st.credits > 0 && len(st.pending) > 0 {
		ev := st.pending[0]
		ev.Dropped = st.dropped // latest total travels with every frame
		atomic.AddInt64(&stats.streamFrames, 1)
		atomic.AddInt64(&stats.streamEvents, int64(ev.Count))
		select {
		case st.c.out <- wire.Evt(ev):
			st.pending[0] = nil
			st.pending = st.pending[1:]
			st.credits--
		default:
			atomic.AddInt64(&stats.streamFrames, -1)
			atomic.AddInt64(&stats.streamEvents, -int64(ev.Count))
			return
		}
	}
	if len(st.pending) == 0 {
		st.pending = nil // let the backing array go once drained
	}
}
