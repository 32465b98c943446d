package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	msgs := []*Message{
		Req(&Request{ID: 1, Op: OpHello, Version: Version}),
		Req(&Request{ID: 2, Op: OpAttach, Design: "counter"}),
		Req(&Request{ID: 3, Op: OpBreak, Session: 7, Name: "q", Value: 1000, Mode: "any"}),
		Resp(&Response{ID: 3, Session: 7, Value: 42, Watches: []string{"q", "pulse"}}),
		Resp(&Response{ID: 4, Err: Errf(CodeNoSession, "no session 9")}),
		Resp(&Response{ID: 5, Trace: &Trace{Signals: []string{"cnt"}, Widths: []int{16}, Rows: [][]uint64{{1}, {2}}}}),
		Evt(&Event{Kind: EvtPaused, Session: 7, Op: OpUntil, Cycles: 999}),
	}
	var buf bytes.Buffer
	written := 0
	for _, m := range msgs {
		n, err := WriteMessage(&buf, m)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		written += n
	}
	read := 0
	for _, want := range msgs {
		got, n, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		read += n
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
	if written != read {
		t.Fatalf("byte accounting: wrote %d, read %d", written, read)
	}
	if _, _, err := ReadMessage(&buf); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, Req(&Request{ID: 1, Op: OpHello})); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail cleanly: io.EOF only for the empty
	// prefix, io.ErrUnexpectedEOF for any mid-frame cut.
	for i := 0; i < len(full); i++ {
		_, _, err := ReadMessage(bytes.NewReader(full[:i]))
		if i == 0 {
			if err != io.EOF {
				t.Fatalf("prefix 0: want io.EOF, got %v", err)
			}
			continue
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("prefix %d: want ErrUnexpectedEOF, got %v", i, err)
		}
	}
}

func TestReadMessageOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	_, _, err := ReadMessage(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	// A huge length prefix must not cause a huge allocation: the reader
	// has no payload to back it, and the error fires before make().
	binary.BigEndian.PutUint32(hdr[:], 0xFFFFFFFF)
	if _, _, err := ReadMessage(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestReadMessageGarbage(t *testing.T) {
	cases := []string{
		"\x00\x00\x00\x00",                // empty frame
		"\x00\x00\x00\x05junk!",           // not JSON
		"\x00\x00\x00\x02{}",              // no type
		"\x00\x00\x00\x0b{\"t\":\"zzz\"}", // unknown type
		"\x00\x00\x00\x0b{\"t\":\"req\"}", // req without body
	}
	for _, c := range cases {
		if _, _, err := ReadMessage(strings.NewReader(c)); err == nil {
			t.Fatalf("garbage %q decoded without error", c)
		}
	}
	// Mixed envelope: a "resp" carrying a req body must be rejected.
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, &Message{T: TResp, Req: &Request{ID: 1}, Resp: &Response{ID: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadMessage(&buf); err == nil {
		t.Fatal("mixed envelope decoded without error")
	}
}

func TestErrorHelpers(t *testing.T) {
	err := Errf(CodePoolExhausted, "pool full: %d boards leased", 4)
	if err.Error() != "pool full: 4 boards leased" {
		t.Fatalf("Error(): %q", err.Error())
	}
	if !IsCode(err, CodePoolExhausted) || IsCode(err, CodeBusy) {
		t.Fatal("IsCode misclassified")
	}
	if IsCode(errors.New("plain"), CodePoolExhausted) {
		t.Fatal("IsCode matched a non-wire error")
	}
}

// TestOldV3Peer pins that a v3 peer built while requests still carried
// a client identity and a sequence number keeps working. Its request
// frames set presence bits 2 and 3 and write both values between the
// session and the name; its servers' hello replies set bit 2 of the
// response. Each decodes to the same message without them. A hello that
// presents a client id is answered with the version, as any hello is.
func TestOldV3Peer(t *testing.T) {
	frame := func(body ...byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	for _, c := range []struct {
		frame []byte
		want  *Message
	}{
		// id 7, op 9 (peek), flags session|client|seq|name, session 3,
		// client 42, seq 991, name "dut.q".
		{frame('Q', 7, 9, 0x2e, 3, 42, 0xdf, 0x07, 5, 'd', 'u', 't', '.', 'q'),
			Req(&Request{ID: 7, Op: OpPeek, Session: 3, Name: "dut.q"})},
		// id 1, flags version|client, version 3 (zigzag), client 42.
		{frame('S', 1, 0x06, 6, 42),
			Resp(&Response{ID: 1, Version: Version})},
	} {
		got, _, err := ReadMessageV(bytes.NewReader(c.frame), Version)
		if err != nil {
			t.Fatalf("old frame %x: %v", c.frame, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("old frame %x decoded to %s, want %s", c.frame, dump(got), dump(c.want))
		}
	}

	hello := []byte(`{"t":"req","req":{"id":1,"op":"hello","ver":3,"client":42,"seq":7}}`)
	var replies []*Message
	_, ok := ServeHello(bytes.NewReader(frame(hello...)), func(m *Message) { replies = append(replies, m) })
	want := Resp(&Response{ID: 1, Version: Version})
	if !ok || len(replies) != 1 || !reflect.DeepEqual(replies[0], want) {
		t.Fatalf("hello with a client id: ok=%v replies %v, want %s", ok, replies, dump(want))
	}
}
