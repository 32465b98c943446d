package server

import (
	"testing"

	"zoomie/internal/wire"
)

// TestStreamFrameCountedBeforeSend pins the stream counters against the
// peer: the serving layer's stream core counts a frame in StreamFrames
// and StreamEvents before it enters the connection's outbox, so whoever
// receives it can never read a count that lacks it. The consumer polls
// the outbox in a busy loop and reads the counters the moment a frame
// arrives, which is the window a count taken after the send leaves open.
func TestStreamFrameCountedBeforeSend(t *testing.T) {
	const frames = 100000
	h := &Hub{tr: newTransport("")}
	c := &Conn{h: h, out: make(chan *wire.Message, frames)}
	st := &Stream{c: c, credits: frames}
	go func() {
		for i := 0; i < frames; i++ {
			st.Offer(&wire.Event{Kind: wire.EvtStream, Count: 2})
		}
	}()
	for got := uint64(0); got < frames; {
		select {
		case <-c.out:
			got++
			if n := h.tr.StreamFrames.Load(); n < got {
				t.Fatalf("received frame %d while StreamFrames = %d", got, n)
			}
			if n := h.tr.StreamEvents.Load(); n < 2*got {
				t.Fatalf("received frame %d while StreamEvents = %d, want >= %d", got, n, 2*got)
			}
		default:
		}
	}
}

// TestStreamCountsExactUnderFullOutbox pins the stream counters when
// the connection outbox refuses a frame: the refused frame stays counted
// at the head of the backlog, shedding drops the frames after it, and a
// stream ending on its own sends it ahead of its last frame. Every frame
// counted in StreamFrames reaches the outbox, and every other frame
// counts in StreamDropped. A stream's last frame goes out even when its
// credit window is empty.
func TestStreamCountsExactUnderFullOutbox(t *testing.T) {
	h := &Hub{tr: newTransport("")}
	c := &Conn{h: h, out: make(chan *wire.Message, 1), dead: make(chan struct{}),
		streams: make(map[uint64]*Stream)}
	st := &Stream{id: 1, c: c, credits: 1000, quit: make(chan struct{})}
	c.streams[st.id] = st
	c.out <- wire.Evt(&wire.Event{}) // full: the first frame is counted, then refused
	const offered = streamPending + 10
	for i := 0; i < offered; i++ {
		st.Offer(&wire.Event{Kind: wire.EvtStream, Count: 1})
	}
	<-c.out
	go st.end("gone")
	first, last := (<-c.out).Evt, (<-c.out).Evt
	if first.Seq != 1 || first.Detail != "" {
		t.Errorf("first frame out = %+v, want the refused seq 1", first)
	}
	if last.Detail != "gone" || last.Dropped != offered-1 {
		t.Errorf("last frame = %+v, want Detail gone, Dropped %d", last, offered-1)
	}
	if n := h.tr.StreamFrames.Load(); n != 1 {
		t.Errorf("StreamFrames = %d, want the 1 frame sent", n)
	}
	if n := h.tr.StreamDropped.Load(); n != offered-1 {
		t.Errorf("StreamDropped = %d, want %d", n, offered-1)
	}
	if len(c.streams) != 0 {
		t.Error("the ended stream is still registered")
	}

	// With the credit window empty, the backlog drops and the last frame
	// still goes out.
	st = &Stream{id: 2, c: c, quit: make(chan struct{})}
	c.streams[st.id] = st
	for i := 0; i < 3; i++ {
		st.Offer(&wire.Event{Kind: wire.EvtStream, Count: 1})
	}
	st.end("gone")
	if last := (<-c.out).Evt; last.Stream != 2 || last.Detail != "gone" || last.Dropped != 3 {
		t.Errorf("last frame without credit = %+v, want stream 2, Detail gone, Dropped 3", last)
	}
}
