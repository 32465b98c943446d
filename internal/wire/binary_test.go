package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// codecMessages is a message set spanning every field of every envelope,
// including enum escapes (unknown op/code strings) and boundary values.
func codecMessages() []*Message {
	return []*Message{
		Req(&Request{ID: 1, Op: OpHello, Version: Version}),
		Req(&Request{ID: 2, Op: OpAttach, Design: "counter"}),
		Req(&Request{ID: 3, Op: OpPeek, Session: 9, Name: "dut.count"}),
		Req(&Request{ID: 4, Op: OpPoke, Session: 9, Name: "dut.count", Value: ^uint64(0)}),
		Req(&Request{ID: 5, Op: OpPeekMem, Session: 9, Name: "mem", Addr: 123}),
		Req(&Request{ID: 6, Op: OpTrace, Session: 9, Signals: []string{"a", "b", "a"}, N: -3}),
		Req(&Request{ID: 7, Op: OpBreak, Session: 9, Name: "x", Value: 1, Mode: "all"}),
		Req(&Request{ID: 8, Op: OpAssert, Session: 9, Name: "x", Enable: true}),
		Req(&Request{ID: 9, Op: OpPeekBatch, Session: 9, Items: []BatchItem{
			{Name: "a"}, {Name: "m", Mem: true, Addr: 4}, {Name: "b", Value: 77},
		}}),
		Req(&Request{ID: 10, Op: "customop", Prefix: "dut.", Stream: 3}),
		Req(&Request{ID: 11, Op: OpStreamOpen, Session: 9, Name: StreamCounters, N: 64, Value: 10}),
		Resp(&Response{ID: 1, Version: 3}),
		Resp(&Response{ID: 2, Session: 9, Design: "counter", Device: "U200", Report: "ok", Watches: []string{"w1", "w2"}}),
		Resp(&Response{ID: 3, Value: 0xdeadbeef}),
		Resp(&Response{ID: 4, Err: Errf(CodeIsMemory, "%q is a memory", "m")}),
		Resp(&Response{ID: 5, Err: Errf("weird_code", "escape hatch")}),
		Resp(&Response{ID: 6, Values: []uint64{1, 0, ^uint64(0)}}),
		Resp(&Response{ID: 7, Ran: -1, Paused: true, Cycles: 100, ElapsedNS: -5}),
		Resp(&Response{ID: 8, Regs: 3, Mems: 2, Lines: []string{"reg a", "mem b"}}),
		Resp(&Response{ID: 9, Trace: &Trace{
			Signals: []string{"clk", "q"},
			Widths:  []int{1, 8},
			Rows:    [][]uint64{{0, 1}, {1, 2}},
		}}),
		Resp(&Response{ID: 10, Stats: &Stats{CommandsServed: 12, LatencyBuckets: []int64{1, 2, 3, 4, 5, 6}}}),
		Resp(&Response{ID: 11, Stream: 3}),
		Evt(&Event{Kind: EvtPaused, Session: 9, Op: OpStep, Cycles: 55, Detail: "breakpoint"}),
		Evt(&Event{Kind: "mystery", Detail: "unknown kind escape"}),
		Evt(&Event{Kind: EvtStream, Stream: 3, Seq: 2, Dropped: 1, Count: 1000,
			Names: []string{"peeks", "pokes"}, Deltas: []uint64{900, 100}}),
		Evt(&Event{Kind: EvtStream, Stream: 4, Seq: 1, Count: 16,
			Names: []string{"p0"}, Rows: [][]uint64{{1}, {2}, {3}}}),
	}
}

// TestBinaryRoundTrip pushes every message shape through the v3 codec
// and requires the decoded form to match the original exactly.
func TestBinaryRoundTrip(t *testing.T) {
	for _, m := range codecMessages() {
		var buf bytes.Buffer
		wn, err := WriteMessageV(&buf, m, 3)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		if wn != buf.Len() {
			t.Fatalf("reported %d bytes, wrote %d", wn, buf.Len())
		}
		got, rn, err := ReadMessageV(&buf, 3)
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if rn != wn {
			t.Fatalf("read %d bytes, wrote %d", rn, wn)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip mismatch:\n got %s\nwant %s", dump(got), dump(m))
		}
	}
}

// TestBinaryCrossCodec checks semantic equivalence between the JSON
// codec of the hello and the binary codec of every later frame: a
// message encoded in one and re-encoded in the other must decode to the
// same value.
func TestBinaryCrossCodec(t *testing.T) {
	for _, m := range codecMessages() {
		var jb bytes.Buffer
		if _, err := WriteMessage(&jb, m); err != nil {
			t.Fatalf("json encode: %v", err)
		}
		viaJSON, _, err := ReadMessage(&jb)
		if err != nil {
			t.Fatalf("json decode: %v", err)
		}
		var bb bytes.Buffer
		if _, err := WriteMessageV(&bb, viaJSON, 3); err != nil {
			t.Fatalf("binary re-encode: %v", err)
		}
		viaBoth, _, err := ReadMessageV(&bb, 3)
		if err != nil {
			t.Fatalf("binary re-decode: %v", err)
		}
		if !reflect.DeepEqual(viaBoth, viaJSON) {
			t.Errorf("cross-codec mismatch:\n got %s\nwant %s", dump(viaBoth), dump(viaJSON))
		}
	}
}

// TestEncoderCoalescing queues several frames and checks one Flush emits
// a byte stream that decodes back to the same sequence.
func TestEncoderCoalescing(t *testing.T) {
	msgs := codecMessages()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Version)
	for _, m := range msgs {
		if err := enc.Queue(m); err != nil {
			t.Fatalf("queue: %v", err)
		}
	}
	n, err := enc.Flush()
	if err != nil {
		t.Fatalf("flush: %v", err)
	}
	if n != buf.Len() {
		t.Fatalf("flush reported %d bytes, wrote %d", n, buf.Len())
	}
	dec := NewDecoder(&buf, Version)
	for i, want := range msgs {
		got, _, err := dec.Next()
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d mismatch:\n got %s\nwant %s", i, dump(got), dump(want))
		}
	}
	if _, _, err := dec.Next(); err != io.EOF {
		t.Fatalf("expected EOF after last frame, got %v", err)
	}
}

// TestDecoderReuse checks reuse mode decodes correctly frame by frame
// (each message fully consumed before the next call).
func TestDecoderReuse(t *testing.T) {
	msgs := codecMessages()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, 3)
	for _, m := range msgs {
		if err := enc.Queue(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf, 3)
	dec.SetReuse(true)
	for i, want := range msgs {
		got, _, err := dec.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d mismatch:\n got %s\nwant %s", i, dump(got), dump(want))
		}
	}
}

// TestBinaryDecodeHostile feeds adversarial binary frames: truncations,
// bogus counts, unknown kinds/flags. All must error cleanly.
func TestBinaryDecodeHostile(t *testing.T) {
	var full bytes.Buffer
	if _, err := WriteMessageV(&full, Req(&Request{ID: 9, Op: OpPeekBatch, Session: 1, Items: []BatchItem{{Name: "a"}, {Name: "b", Mem: true, Addr: 2}}}), 3); err != nil {
		t.Fatal(err)
	}
	frame := full.Bytes()
	// Every truncation of a valid frame must fail without panicking.
	for i := 0; i < len(frame); i++ {
		if _, _, err := ReadMessageV(bytes.NewReader(frame[:i]), 3); err == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}
	hostile := [][]byte{
		{0, 0, 0, 1, 'X'},                               // unknown kind
		{0, 0, 0, 2, 'Q', 0xFF},                         // truncated varint
		{0, 0, 0, 5, 'Q', 1, 9, 0x80, 0x80},             // unterminated flags varint
		{0, 0, 0, 6, 'Q', 1, 0, 0xFF, 0xFF, 0x03},       // unknown flag bits
		{0, 0, 0, 7, 'E', 6, 0, 0, 0, 0, 0},             // trailing bytes
		{0, 0, 0, 8, 'Q', 1, 9, 0x80, 0x20, 0xFF, 0, 0}, // huge item count
		{0, 0, 0, 5, 'S', 1, 1, 0, 0xFF},                // err code out of table
	}
	for _, h := range hostile {
		if m, _, err := ReadMessageV(bytes.NewReader(h), 3); err == nil {
			t.Fatalf("hostile frame %x decoded to %s", h, dump(m))
		}
	}
}

func dump(m *Message) string {
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, m); err != nil {
		return "<unencodable>"
	}
	return buf.String()[4:]
}

// discard is an io.Writer that fully consumes without retaining, letting
// encode benchmarks measure codec cost alone.
type discard struct{ n int }

func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

func benchPeekReq() *Message {
	return Req(&Request{ID: 12345, Op: OpPeek, Session: 3, Name: "dut.datapath.alu.result"})
}

func benchBatchResp() *Message {
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = uint64(i) * 0x9e3779b9
	}
	return Resp(&Response{ID: 12345, Values: vals})
}

func benchmarkEncode(b *testing.B, m *Message) {
	w := &discard{}
	enc := NewEncoder(w, Version)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(m); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(w.n / b.N))
}

func benchmarkDecode(b *testing.B, m *Message) {
	var one bytes.Buffer
	enc := NewEncoder(&one, Version)
	if _, err := enc.Encode(m); err != nil {
		b.Fatal(err)
	}
	frame := one.Bytes()
	r := bytes.NewReader(frame)
	dec := NewDecoder(r, Version)
	dec.SetReuse(true)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, _, err := dec.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeV3(b *testing.B) {
	b.Run("peek", func(b *testing.B) { benchmarkEncode(b, benchPeekReq()) })
	b.Run("batch64", func(b *testing.B) { benchmarkEncode(b, benchBatchResp()) })
}

func BenchmarkWireDecodeV3(b *testing.B) {
	b.Run("peek", func(b *testing.B) { benchmarkDecode(b, benchPeekReq()) })
	b.Run("batch64", func(b *testing.B) { benchmarkDecode(b, benchBatchResp()) })
}
