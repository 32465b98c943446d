package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// framesSHA pins the v3 encodings of pinnedMessages.
const framesSHA = "a6104348cf003774423605ebfba85a8bfc521a6976da594c6a47a49c05473fd4"

// pinnedMessages is codecMessages plus one request per op code, one
// error response per error code and one event per event kind, so every
// table entry is pinned.
func pinnedMessages() []*Message {
	msgs := codecMessages()
	for i, op := range opNames[1:] {
		msgs = append(msgs, Req(&Request{ID: uint64(100 + i), Op: op, Session: 5, Name: "dut.q", N: i}))
	}
	for i, code := range errNames[1:] {
		msgs = append(msgs, Resp(&Response{ID: uint64(200 + i), Err: Errf(code, "failure %d", i)}))
	}
	for i, kind := range evtNames[1:] {
		msgs = append(msgs, Evt(&Event{Kind: kind, Session: uint64(i), Op: opNames[1+i], Cycles: uint64(1000 * i)}))
	}
	return msgs
}

// TestFramesPinned pins a SHA-256 of the v3 frames of every pinned
// message: the frame format must not move by a byte.
func TestFramesPinned(t *testing.T) {
	h := sha256.New()
	var buf []byte
	for _, m := range pinnedMessages() {
		var err error
		if buf, err = AppendMessage(buf[:0], m); err != nil {
			t.Fatalf("encode %s: %v", dump(m), err)
		}
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != framesSHA {
		t.Errorf("frames SHA-256 %s, want %s", got, framesSHA)
	}
}

// TestCodecZeroAllocs holds the hot path to its allocation budget:
// encoding a peek request or a 64-value batch response allocates
// nothing, and neither does decoding them with SetReuse(true).
func TestCodecZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *Message
	}{{"peek", benchPeekReq()}, {"batch64", benchBatchResp()}} {
		enc := NewEncoder(&discard{}, Version)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := enc.Encode(c.m); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("encode %s: %v allocs per frame, want 0", c.name, n)
		}

		frame, err := AppendMessage(nil, c.m)
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(frame)
		dec := NewDecoder(r, Version)
		dec.SetReuse(true)
		if n := testing.AllocsPerRun(100, func() {
			r.Reset(frame)
			if _, _, err := dec.Next(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("decode %s: %v allocs per frame, want 0", c.name, n)
		}
	}
}
