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
	h := &Hub{}
	c := &Conn{h: h, out: make(chan *wire.Message, frames)}
	st := &Stream{c: c, credits: frames}
	go func() {
		for i := 0; i < frames; i++ {
			st.Offer(&wire.Event{Kind: wire.EvtStream, Count: 2})
		}
	}()
	for got := int64(0); got < frames; {
		select {
		case <-c.out:
			got++
			if n := h.tr.streamFrames.Load(); n < got {
				t.Fatalf("received frame %d while StreamFrames = %d", got, n)
			}
			if n := h.tr.streamEvents.Load(); n < 2*got {
				t.Fatalf("received frame %d while StreamEvents = %d, want >= %d", got, n, 2*got)
			}
		default:
		}
	}
}
