// Binary framing: every frame after the JSON hello.
//
// A frame is a 4-byte big-endian payload length, bounded by MaxFrame,
// and a tagged binary body:
//
//	payload := kind body
//	kind    := 'Q' (request) | 'S' (response) | 'E' (event)
//
// Bodies are positional: the always-present fields first (id, opcode),
// then a presence bitmask, then the present optional fields in bit
// order. Values are written by internal/codec: unsigned integers are
// uvarints, signed integers are zigzag varints, strings are
// length-prefixed bytes, and well-known enums (op names, error codes,
// event kinds) are table-coded with code 0 escaping to a literal string
// so arbitrary messages survive a round trip. The presence rule matches
// encoding/json's omitempty — a zero field is absent — so a message
// decodes identically from a JSON frame (the hello) and a binary one.
//
// Each message's optional fields are one table of fields (see field):
// an entry's index in its table is its presence bit, and the entry holds
// the field's presence test, writer and reader.
//
// The codec is built for the hot path: Encoder appends frames to one
// pooled buffer and writes them with a single Write (writev-style
// coalescing), Decoder reuses its payload buffer and interns repeated
// strings (signal names, design names), and neither touches reflection.
// Encoding a peek request or a batched-peek response allocates nothing
// in steady state; decoding allocates only the small result structs
// (and, with SetReuse(true), nothing at all).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"zoomie/internal/codec"
)

// Frame kind tags (first payload byte). Chosen to collide with nothing a
// JSON payload can start with, so a peer still speaking JSON fails loudly
// in the envelope check instead of misparsing.
const (
	kindReq  = 'Q'
	kindResp = 'S'
	kindEvt  = 'E'
)

// opCode tables: dense numeric codes for the op strings. Code 0 is the
// string escape. Appending to this table is wire-compatible; reordering
// is not (the codes are the protocol).
var opNames = []string{
	0:  "", // escape: literal string follows
	1:  OpHello,
	2:  OpAttach,
	3:  OpDetach,
	4:  OpRun,
	5:  OpPause,
	6:  OpResume,
	7:  OpStep,
	8:  OpUntil,
	9:  OpPeek,
	10: OpPoke,
	11: OpPeekMem,
	12: OpPokeMem,
	13: OpBreak,
	14: OpClearBrk,
	15: OpAssert,
	16: OpSnapSave,
	17: OpSnapRest,
	18: OpInspect,
	19: OpTrace,
	20: OpInput,
	21: OpOutput,
	22: OpSessStat,
	23: OpStatus,
	24: OpSubscribe,
	25: OpPeekBatch,
	26: OpPokeBatch,
	27: OpStreamOpen,
	28: OpStreamCredit,
	29: OpStreamClose,
	30: OpHistSeek,
	31: OpHistRewind,
	32: OpHistRevCont,
	33: OpHistSave,
	34: OpHistLoad,
	35: OpHistStat,
	36: OpHistTimelines,
	37: OpStateExport,
	38: OpStateImport,
	39: OpFleetStat,
	40: OpFleetDrain,
	41: OpCompileSubmit,
	42: OpCompileStatus,
	43: OpCompileCancel,
}

var evtNames = []string{
	0: "", // escape
	1: EvtPaused,
	2: EvtDetached,
	3: EvtShutdown,
	4: EvtQuarantined,
	5: EvtMigrated,
	6: EvtStream,
}

var errNames = []string{
	0:  "", // escape
	1:  CodeBadRequest,
	2:  CodeUnknownOp,
	3:  CodeUnknownDesign,
	4:  CodeForbidden,
	5:  CodeNoSession,
	6:  CodePoolExhausted,
	7:  CodeBusy,
	8:  CodeVersion,
	9:  CodeShutdown,
	10: CodeOp,
	11: CodeTimeout,
	12: CodeConnLost,
	13: CodeBoardFailed,
	14: CodeUnknownState,
	15: CodeIsMemory,
	16: CodeIsRegister,
	17: CodeOutOfRange,
	18: CodeNotWatched,
	19: CodeWidthMismatch,
	20: CodePartialBatch,
	21: CodeCancelled,
	22: CodeNoStream,
	23: CodeHistoryHorizon,
	24: CodeOverloaded,
}

var (
	opCodes  = invert(opNames)
	evtCodes = invert(evtNames)
	errCodes = invert(errNames)
)

func invert(names []string) map[string]uint64 {
	m := make(map[string]uint64, len(names))
	for i, n := range names {
		if i != 0 {
			m[n] = uint64(i)
		}
	}
	return m
}

// appendEnum table-codes a well-known string, escaping unknown values to
// code 0 + literal so arbitrary strings survive the round trip.
func appendEnum(b []byte, codes map[string]uint64, s string) []byte {
	if c, ok := codes[s]; ok {
		return codec.AppendUvarint(b, c)
	}
	return codec.AppendString(codec.AppendUvarint(b, 0), s)
}

// readEnum decodes a table-coded string (code 0 = literal escape).
func readEnum(d *codec.Decoder, names []string) string {
	c := d.Uvarint()
	if c == 0 {
		return d.String()
	}
	if c >= uint64(len(names)) {
		d.Fail("unknown enum code %d", c)
		return ""
	}
	return names[c]
}

// field is one optional field of a message table. put is nil for a
// boolean carried by its presence bit alone; its get sets it true.
// Writers take the buffer by value and readers a decoder that lives on
// the heap already, so neither allocates per frame.
type field[T any] struct {
	has func(*T) bool
	put func([]byte, *T) []byte
	get func(*codec.Decoder, *T)
}

// retired is the slot of a uvarint field no longer sent. Its presence
// bit stays taken, and a value an older v3 peer still sends there is
// read and dropped, so that peer keeps working.
func retired[T any]() field[T] {
	return field[T]{
		has: func(*T) bool { return false },
		get: func(d *codec.Decoder, _ *T) { d.Uvarint() },
	}
}

// table lists a message's optional fields in presence-bit order.
type table[T any] []field[T]

// flags returns the presence mask of v.
func (t table[T]) flags(v *T) uint64 {
	var flags uint64
	for i := range t {
		if t[i].has(v) {
			flags |= 1 << i
		}
	}
	return flags
}

// put appends the fields of v that flags marks present, in bit order.
func (t table[T]) put(b []byte, v *T, flags uint64) []byte {
	for f := flags; f != 0; f &= f - 1 {
		if put := t[bits.TrailingZeros64(f)].put; put != nil {
			b = put(b, v)
		}
	}
	return b
}

// append appends the presence mask of v and its present fields.
func (t table[T]) append(b []byte, v *T) []byte {
	flags := t.flags(v)
	return t.put(codec.AppendUvarint(b, flags), v, flags)
}

// readFlags reads a presence mask, refusing bits the table does not
// define.
func (t table[T]) readFlags(d *codec.Decoder, what string) uint64 {
	flags := d.Uvarint()
	if flags >= 1<<len(t) {
		d.Fail("unknown %s flags %#x", what, flags)
		return 0
	}
	return flags
}

// get reads the fields flags marks present into v.
func (t table[T]) get(d *codec.Decoder, v *T, flags uint64) {
	for f := flags; f != 0; f &= f - 1 {
		t[bits.TrailingZeros64(f)].get(d, v)
	}
}

var requestFields = table[Request]{
	{func(r *Request) bool { return r.Version != 0 },
		func(b []byte, r *Request) []byte { return codec.AppendVarint(b, int64(r.Version)) },
		func(d *codec.Decoder, r *Request) { r.Version = d.Int() }},
	{func(r *Request) bool { return r.Session != 0 },
		func(b []byte, r *Request) []byte { return codec.AppendUvarint(b, r.Session) },
		func(d *codec.Decoder, r *Request) { r.Session = d.Uvarint() }},
	retired[Request](), // the client identity
	retired[Request](), // the request sequence number
	{func(r *Request) bool { return r.Design != "" },
		func(b []byte, r *Request) []byte { return codec.AppendString(b, r.Design) },
		func(d *codec.Decoder, r *Request) { r.Design = d.String() }},
	{func(r *Request) bool { return r.Name != "" },
		func(b []byte, r *Request) []byte { return codec.AppendString(b, r.Name) },
		func(d *codec.Decoder, r *Request) { r.Name = d.String() }},
	{func(r *Request) bool { return r.Prefix != "" },
		func(b []byte, r *Request) []byte { return codec.AppendString(b, r.Prefix) },
		func(d *codec.Decoder, r *Request) { r.Prefix = d.String() }},
	{func(r *Request) bool { return len(r.Signals) != 0 },
		func(b []byte, r *Request) []byte { return codec.AppendStrings(b, r.Signals) },
		func(d *codec.Decoder, r *Request) { r.Signals = d.Strings() }},
	{func(r *Request) bool { return r.Value != 0 },
		func(b []byte, r *Request) []byte { return codec.AppendUvarint(b, r.Value) },
		func(d *codec.Decoder, r *Request) { r.Value = d.Uvarint() }},
	{func(r *Request) bool { return r.Addr != 0 },
		func(b []byte, r *Request) []byte { return codec.AppendVarint(b, int64(r.Addr)) },
		func(d *codec.Decoder, r *Request) { r.Addr = d.Int() }},
	{func(r *Request) bool { return r.N != 0 },
		func(b []byte, r *Request) []byte { return codec.AppendVarint(b, int64(r.N)) },
		func(d *codec.Decoder, r *Request) { r.N = d.Int() }},
	{func(r *Request) bool { return r.Mode != "" },
		func(b []byte, r *Request) []byte { return codec.AppendString(b, r.Mode) },
		func(d *codec.Decoder, r *Request) { r.Mode = d.String() }},
	{func(r *Request) bool { return r.Enable }, nil,
		func(_ *codec.Decoder, r *Request) { r.Enable = true }},
	{func(r *Request) bool { return len(r.Items) != 0 }, appendItems, readItems},
	{func(r *Request) bool { return r.Stream != 0 },
		func(b []byte, r *Request) []byte { return codec.AppendUvarint(b, r.Stream) },
		func(d *codec.Decoder, r *Request) { r.Stream = d.Uvarint() }},
	{func(r *Request) bool { return len(r.Blob) != 0 },
		func(b []byte, r *Request) []byte { return codec.AppendBytes(b, r.Blob) },
		func(d *codec.Decoder, r *Request) { r.Blob = d.Bytes() }},
}

// itemFields are a BatchItem's optional fields; its name sits between
// the presence mask and them.
var itemFields = table[BatchItem]{
	{func(it *BatchItem) bool { return it.Mem }, nil,
		func(_ *codec.Decoder, it *BatchItem) { it.Mem = true }},
	{func(it *BatchItem) bool { return it.Addr != 0 },
		func(b []byte, it *BatchItem) []byte { return codec.AppendVarint(b, int64(it.Addr)) },
		func(d *codec.Decoder, it *BatchItem) { it.Addr = d.Int() }},
	{func(it *BatchItem) bool { return it.Value != 0 },
		func(b []byte, it *BatchItem) []byte { return codec.AppendUvarint(b, it.Value) },
		func(d *codec.Decoder, it *BatchItem) { it.Value = d.Uvarint() }},
}

func appendItems(b []byte, r *Request) []byte {
	b = codec.AppendUvarint(b, uint64(len(r.Items)))
	for i := range r.Items {
		it := &r.Items[i]
		flags := itemFields.flags(it)
		b = codec.AppendString(codec.AppendUvarint(b, flags), it.Name)
		b = itemFields.put(b, it, flags)
	}
	return b
}

// readItems reads a batch into the capacity r.Items already holds (a
// reused request's), growing it only when the batch is larger.
func readItems(d *codec.Decoder, r *Request) {
	n := d.Count(2) // a presence mask and a name length at least
	if cap(r.Items) < n {
		r.Items = make([]BatchItem, n)
	}
	r.Items = r.Items[:n]
	for i := range r.Items {
		it := &r.Items[i]
		*it = BatchItem{}
		flags := itemFields.readFlags(d, "batch-item")
		it.Name = d.String()
		itemFields.get(d, it, flags)
	}
}

var responseFields = table[Response]{
	{func(r *Response) bool { return r.Err != nil },
		func(b []byte, r *Response) []byte {
			return codec.AppendString(appendEnum(b, errCodes, r.Err.Code), r.Err.Msg)
		},
		func(d *codec.Decoder, r *Response) {
			code := readEnum(d, errNames)
			r.Err = &Error{Code: code, Msg: d.String()}
		}},
	{func(r *Response) bool { return r.Version != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendVarint(b, int64(r.Version)) },
		func(d *codec.Decoder, r *Response) { r.Version = d.Int() }},
	retired[Response](), // the hello's client identity
	{func(r *Response) bool { return r.Session != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendUvarint(b, r.Session) },
		func(d *codec.Decoder, r *Response) { r.Session = d.Uvarint() }},
	{func(r *Response) bool { return r.Design != "" },
		func(b []byte, r *Response) []byte { return codec.AppendString(b, r.Design) },
		func(d *codec.Decoder, r *Response) { r.Design = d.String() }},
	{func(r *Response) bool { return r.Device != "" },
		func(b []byte, r *Response) []byte { return codec.AppendString(b, r.Device) },
		func(d *codec.Decoder, r *Response) { r.Device = d.String() }},
	{func(r *Response) bool { return r.Report != "" },
		func(b []byte, r *Response) []byte { return codec.AppendString(b, r.Report) },
		func(d *codec.Decoder, r *Response) { r.Report = d.String() }},
	{func(r *Response) bool { return len(r.Watches) != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendStrings(b, r.Watches) },
		func(d *codec.Decoder, r *Response) { r.Watches = d.Strings() }},
	{func(r *Response) bool { return r.Value != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendUvarint(b, r.Value) },
		func(d *codec.Decoder, r *Response) { r.Value = d.Uvarint() }},
	{func(r *Response) bool { return len(r.Values) != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendWords(b, r.Values) },
		func(d *codec.Decoder, r *Response) { r.Values = d.Words(r.Values) }},
	{func(r *Response) bool { return r.Ran != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendVarint(b, int64(r.Ran)) },
		func(d *codec.Decoder, r *Response) { r.Ran = d.Int() }},
	{func(r *Response) bool { return r.Paused }, nil,
		func(_ *codec.Decoder, r *Response) { r.Paused = true }},
	{func(r *Response) bool { return r.Cycles != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendUvarint(b, r.Cycles) },
		func(d *codec.Decoder, r *Response) { r.Cycles = d.Uvarint() }},
	{func(r *Response) bool { return r.ElapsedNS != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendVarint(b, r.ElapsedNS) },
		func(d *codec.Decoder, r *Response) { r.ElapsedNS = d.Varint() }},
	{func(r *Response) bool { return r.Regs != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendVarint(b, int64(r.Regs)) },
		func(d *codec.Decoder, r *Response) { r.Regs = d.Int() }},
	{func(r *Response) bool { return r.Mems != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendVarint(b, int64(r.Mems)) },
		func(d *codec.Decoder, r *Response) { r.Mems = d.Int() }},
	{func(r *Response) bool { return len(r.Lines) != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendStrings(b, r.Lines) },
		func(d *codec.Decoder, r *Response) { r.Lines = d.Strings() }},
	{func(r *Response) bool { return r.Trace != nil }, appendTrace, readTrace},
	{func(r *Response) bool { return r.Stats != nil },
		// Stats is the cold control plane (one OpStatus per scrape); a JSON
		// sub-blob keeps the binary codec small without freezing the
		// counter set into the framing. A struct of integers always
		// marshals.
		func(b []byte, r *Response) []byte {
			blob, _ := json.Marshal(r.Stats)
			return codec.AppendBytes(b, blob)
		},
		func(d *codec.Decoder, r *Response) {
			r.Stats = &Stats{}
			if err := json.Unmarshal(d.Bytes(), r.Stats); err != nil {
				d.Fail("stats: %v", err)
			}
		}},
	{func(r *Response) bool { return r.Stream != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendUvarint(b, r.Stream) },
		func(d *codec.Decoder, r *Response) { r.Stream = d.Uvarint() }},
	{func(r *Response) bool { return len(r.Blob) != 0 },
		func(b []byte, r *Response) []byte { return codec.AppendBytes(b, r.Blob) },
		func(d *codec.Decoder, r *Response) { r.Blob = d.Bytes() }},
}

// A Trace has no optional field: its signals, widths and rows are
// always written, in that order.
func appendTrace(b []byte, r *Response) []byte {
	t := r.Trace
	b = codec.AppendStrings(b, t.Signals)
	b = codec.AppendUvarint(b, uint64(len(t.Widths)))
	for _, w := range t.Widths {
		b = codec.AppendVarint(b, int64(w))
	}
	return codec.AppendRows(b, t.Rows)
}

func readTrace(d *codec.Decoder, r *Response) {
	t := &Trace{Signals: d.Strings()}
	if n := d.Count(1); n > 0 {
		t.Widths = make([]int, n)
		for i := range t.Widths {
			t.Widths[i] = d.Int()
		}
	}
	t.Rows = d.Rows()
	r.Trace = t
}

var eventFields = table[Event]{
	{func(e *Event) bool { return e.Session != 0 },
		func(b []byte, e *Event) []byte { return codec.AppendUvarint(b, e.Session) },
		func(d *codec.Decoder, e *Event) { e.Session = d.Uvarint() }},
	{func(e *Event) bool { return e.Op != "" },
		func(b []byte, e *Event) []byte { return appendEnum(b, opCodes, e.Op) },
		func(d *codec.Decoder, e *Event) { e.Op = readEnum(d, opNames) }},
	{func(e *Event) bool { return e.Cycles != 0 },
		func(b []byte, e *Event) []byte { return codec.AppendUvarint(b, e.Cycles) },
		func(d *codec.Decoder, e *Event) { e.Cycles = d.Uvarint() }},
	{func(e *Event) bool { return e.Detail != "" },
		func(b []byte, e *Event) []byte { return codec.AppendString(b, e.Detail) },
		func(d *codec.Decoder, e *Event) { e.Detail = d.String() }},
	{func(e *Event) bool { return e.Stream != 0 },
		func(b []byte, e *Event) []byte { return codec.AppendUvarint(b, e.Stream) },
		func(d *codec.Decoder, e *Event) { e.Stream = d.Uvarint() }},
	{func(e *Event) bool { return e.Seq != 0 },
		func(b []byte, e *Event) []byte { return codec.AppendUvarint(b, e.Seq) },
		func(d *codec.Decoder, e *Event) { e.Seq = d.Uvarint() }},
	{func(e *Event) bool { return e.Dropped != 0 },
		func(b []byte, e *Event) []byte { return codec.AppendUvarint(b, e.Dropped) },
		func(d *codec.Decoder, e *Event) { e.Dropped = d.Uvarint() }},
	{func(e *Event) bool { return e.Count != 0 },
		func(b []byte, e *Event) []byte { return codec.AppendUvarint(b, e.Count) },
		func(d *codec.Decoder, e *Event) { e.Count = d.Uvarint() }},
	{func(e *Event) bool { return len(e.Names) != 0 },
		func(b []byte, e *Event) []byte { return codec.AppendStrings(b, e.Names) },
		func(d *codec.Decoder, e *Event) { e.Names = d.Strings() }},
	{func(e *Event) bool { return len(e.Deltas) != 0 },
		func(b []byte, e *Event) []byte { return codec.AppendWords(b, e.Deltas) },
		func(d *codec.Decoder, e *Event) { e.Deltas = d.Words(nil) }},
	{func(e *Event) bool { return len(e.Rows) != 0 },
		func(b []byte, e *Event) []byte { return codec.AppendRows(b, e.Rows) },
		func(d *codec.Decoder, e *Event) { e.Rows = d.Rows() }},
}

// AppendMessage appends one v3 frame (length prefix included) to buf and
// returns the extended slice. It is the zero-allocation core of the v3
// encode path; Encoder wraps it with buffer pooling and coalescing.
func AppendMessage(buf []byte, m *Message) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length back-patched below
	switch {
	case m.T == TReq && m.Req != nil:
		buf = append(buf, kindReq)
		buf = codec.AppendUvarint(buf, m.Req.ID)
		buf = appendEnum(buf, opCodes, m.Req.Op)
		buf = requestFields.append(buf, m.Req)
	case m.T == TResp && m.Resp != nil:
		buf = append(buf, kindResp)
		buf = codec.AppendUvarint(buf, m.Resp.ID)
		buf = responseFields.append(buf, m.Resp)
	case m.T == TEvt && m.Evt != nil:
		buf = append(buf, kindEvt)
		buf = appendEnum(buf, evtCodes, m.Evt.Kind)
		buf = eventFields.append(buf, m.Evt)
	case m.T == TReq || m.T == TResp || m.T == TEvt:
		return buf[:start], fmt.Errorf("wire: encode: %q envelope without its body", m.T)
	default:
		return buf[:start], fmt.Errorf("wire: encode: unknown message type %q", m.T)
	}
	n := len(buf) - start - 4
	if n > MaxFrame {
		return buf[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(n))
	return buf, nil
}

// decodePayload decodes one v3 payload (the bytes after the length
// prefix) into m. The request, response or event m already points to (a
// reusing Decoder's) receives the decoded fields, into its batch items
// or values when large enough; otherwise the one the frame's kind needs
// is allocated.
func decodePayload(d *codec.Decoder, payload []byte, m *Message) error {
	if len(payload) == 0 {
		return errEmptyFrame
	}
	d.Reset(payload[1:])
	switch payload[0] {
	case kindReq:
		req := m.Req
		if req == nil {
			req = &Request{}
		}
		*req = Request{Items: req.Items[:0]}
		req.ID = d.Uvarint()
		req.Op = readEnum(d, opNames)
		requestFields.get(d, req, requestFields.readFlags(d, "request"))
		if len(req.Items) == 0 {
			req.Items = nil
		}
		*m = Message{T: TReq, Req: req}
	case kindResp:
		resp := m.Resp
		if resp == nil {
			resp = &Response{}
		}
		*resp = Response{Values: resp.Values[:0]}
		resp.ID = d.Uvarint()
		responseFields.get(d, resp, responseFields.readFlags(d, "response"))
		if len(resp.Values) == 0 {
			resp.Values = nil
		}
		*m = Message{T: TResp, Resp: resp}
	case kindEvt:
		evt := m.Evt
		if evt == nil {
			evt = &Event{}
		}
		*evt = Event{}
		evt.Kind = readEnum(d, evtNames)
		eventFields.get(d, evt, eventFields.readFlags(d, "event"))
		*m = Message{T: TEvt, Evt: evt}
	default:
		return fmt.Errorf("wire: unknown binary frame kind %#x", payload[0])
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	if d.Len() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after binary frame", d.Len())
	}
	return nil
}

// ---- Encoder / Decoder ----

// Encoder writes binary frames, coalescing queued frames into a single
// Write (the userspace analogue of writev). It owns a reusable buffer, so
// steady-state encoding allocates nothing. Not safe for concurrent use;
// callers serialize (the server's per-conn write mutex, the client's
// writeMu).
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns a binary-frame encoder. The version argument is
// unused: every protocol version still spoken (MinVersion..Version)
// frames in binary after the hello.
func NewEncoder(w io.Writer, _ int) *Encoder {
	return &Encoder{w: w, buf: make([]byte, 0, 1024)}
}

// Queue appends one frame to the pending buffer without writing it.
// Combined with Flush this coalesces many small frames (batch responses,
// event bursts) into one syscall.
func (e *Encoder) Queue(m *Message) error {
	var err error
	e.buf, err = AppendMessage(e.buf, m)
	return err
}

// Flush writes every queued frame with a single Write and returns the
// number of bytes written.
func (e *Encoder) Flush() (int, error) {
	if len(e.buf) == 0 {
		return 0, nil
	}
	n, err := e.w.Write(e.buf)
	// Shed an unusually large buffer after a burst instead of pinning it.
	if cap(e.buf) > 1<<20 {
		e.buf = make([]byte, 0, 1024)
	} else {
		e.buf = e.buf[:0]
	}
	return n, err
}

// Encode queues one frame and flushes it immediately.
func (e *Encoder) Encode(m *Message) (int, error) {
	if err := e.Queue(m); err != nil {
		return 0, err
	}
	return e.Flush()
}

// Decoder reads binary frames. It reuses its payload buffer across frames and interns repeated strings; with
// SetReuse(true) it also reuses the message structs themselves, making
// steady-state decode of the peek/poke hot path allocation-free (the
// returned message is then only valid until the next call). Not safe for
// concurrent use.
type Decoder struct {
	r     io.Reader
	buf   []byte
	dec   codec.Decoder
	reuse bool

	m    Message
	req  Request
	resp Response
	evt  Event
	// hdr lives in the struct so the slice passed to io.ReadFull does
	// not escape a stack frame per call.
	hdr [4]byte
}

// NewDecoder returns a binary-frame decoder. The version argument is
// unused, as for NewEncoder.
func NewDecoder(r io.Reader, _ int) *Decoder {
	d := &Decoder{r: r}
	d.dec.Intern()
	return d
}

// SetReuse opts into struct reuse: each Next overwrites the previously
// returned message. Only safe when every message is fully consumed
// before the next call (benchmarks, tight proxy loops) — the server and
// client keep it off because they hand decoded messages to other
// goroutines.
func (d *Decoder) SetReuse(on bool) { d.reuse = on }

// Next reads one frame. It returns the message, the bytes consumed, and
// an error; truncation and oversize behave exactly like ReadMessage.
func (d *Decoder) Next() (*Message, int, error) {
	payload, n, err := readFrame(d.r, d.hdr[:], d.buf)
	if err != nil {
		return nil, n, err
	}
	d.buf = payload[:cap(payload)]
	var m *Message
	if d.reuse {
		d.m = Message{Req: &d.req, Resp: &d.resp, Evt: &d.evt}
		m = &d.m
	} else {
		m = &Message{}
	}
	if err := decodePayload(&d.dec, payload, m); err != nil {
		return nil, n, err
	}
	return m, n, nil
}

var errEmptyFrame = errors.New("wire: empty frame")

// readFrame reads one length-prefixed payload, for every reader of
// either codec. hdr is the caller's 4-byte header scratch; buf is reused
// for the payload when large enough, else replaced by a buffer rounded
// up to a power of two, so a stream of slightly-growing frames does not
// reallocate on every frame. It returns the payload and the bytes
// consumed. Truncated input yields io.EOF (clean close between frames)
// or io.ErrUnexpectedEOF (mid-frame); an oversized length prefix yields
// ErrFrameTooLarge before any payload allocation.
func readFrame(r io.Reader, hdr, buf []byte) ([]byte, int, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return nil, 4, errEmptyFrame
	}
	if n > MaxFrame {
		return nil, 4, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, max(512, 1<<bits.Len32(n-1)))
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, 4, err
	}
	return payload, 4 + int(n), nil
}

// ---- convenience whole-message helpers ----

var msgBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

// WriteMessageV encodes one message as a binary frame and returns the
// bytes written: the binary cousin of WriteMessage, sharing its pooled
// buffer — one Write, no per-frame allocation in steady state. The
// version argument is unused, as for NewEncoder.
func WriteMessageV(w io.Writer, m *Message, _ int) (int, error) {
	bp := msgBufPool.Get().(*[]byte)
	buf, err := AppendMessage((*bp)[:0], m)
	if err != nil {
		msgBufPool.Put(bp)
		return 0, err
	}
	n, err := w.Write(buf)
	*bp = buf[:0]
	msgBufPool.Put(bp)
	return n, err
}

// ReadMessageV decodes one binary frame — the binary cousin of
// ReadMessage. Each call allocates a fresh message; loops that care about
// allocation use a Decoder. The version argument is unused, as for
// NewEncoder.
func ReadMessageV(r io.Reader, _ int) (*Message, int, error) {
	var hdr [4]byte
	payload, n, err := readFrame(r, hdr[:], nil)
	if err != nil {
		return nil, n, err
	}
	m := &Message{}
	if err := decodePayload(&codec.Decoder{}, payload, m); err != nil {
		return nil, n, err
	}
	return m, n, nil
}
