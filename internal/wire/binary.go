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
// order. Unsigned integers are uvarints, signed integers are zigzag
// varints, strings are length-prefixed bytes, and well-known enums (op
// names, error codes, event kinds) are table-coded with code 0 escaping
// to a literal string so arbitrary messages survive a round trip. The
// presence rule matches encoding/json's omitempty — a zero field is
// absent — so a message decodes identically from a JSON frame (the
// hello) and a binary one.
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

// Request presence bits (encode order).
const (
	reqVersion = 1 << iota
	reqSession
	reqClient
	reqSeq
	reqDesign
	reqName
	reqPrefix
	reqSignals
	reqValue
	reqAddr
	reqN
	reqMode
	reqEnable
	reqItems
	reqStream
)

// Response presence bits (encode order).
const (
	respErr = 1 << iota
	respVersion
	respClient
	respSession
	respDesign
	respDevice
	respReport
	respWatches
	respValue
	respValues
	respRan
	respPaused
	respCycles
	respElapsed
	respRegs
	respMems
	respLines
	respTrace
	respStats
	respStream
)

// Event presence bits (encode order).
const (
	evfSession = 1 << iota
	evfOp
	evfCycles
	evfDetail
	evfStream
	evfSeq
	evfDropped
	evfCount
	evfNames
	evfDeltas
	evfRows
)

// ---- append-side primitives ----

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendUint64s(b []byte, vs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func appendRows(b []byte, rows [][]uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = appendUint64s(b, r)
	}
	return b
}

// appendEnum table-codes a well-known string, escaping unknown values to
// code 0 + literal so arbitrary strings survive the round trip.
func appendEnum(b []byte, codes map[string]uint64, s string) []byte {
	if c, ok := codes[s]; ok {
		return binary.AppendUvarint(b, c)
	}
	b = binary.AppendUvarint(b, 0)
	return appendString(b, s)
}

// AppendMessage appends one v3 frame (length prefix included) to buf and
// returns the extended slice. It is the zero-allocation core of the v3
// encode path; Encoder wraps it with buffer pooling and coalescing.
func AppendMessage(buf []byte, m *Message) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length back-patched below
	switch m.T {
	case TReq:
		if m.Req == nil {
			return buf[:start], fmt.Errorf("wire: encode: %q envelope without request", m.T)
		}
		buf = appendRequest(buf, m.Req)
	case TResp:
		if m.Resp == nil {
			return buf[:start], fmt.Errorf("wire: encode: %q envelope without response", m.T)
		}
		var err error
		if buf, err = appendResponse(buf, m.Resp); err != nil {
			return buf[:start], err
		}
	case TEvt:
		if m.Evt == nil {
			return buf[:start], fmt.Errorf("wire: encode: %q envelope without event", m.T)
		}
		buf = appendEvent(buf, m.Evt)
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

func appendRequest(b []byte, r *Request) []byte {
	b = append(b, kindReq)
	b = appendUvarint(b, r.ID)
	b = appendEnum(b, opCodes, r.Op)
	var flags uint64
	if r.Version != 0 {
		flags |= reqVersion
	}
	if r.Session != 0 {
		flags |= reqSession
	}
	if r.Client != 0 {
		flags |= reqClient
	}
	if r.Seq != 0 {
		flags |= reqSeq
	}
	if r.Design != "" {
		flags |= reqDesign
	}
	if r.Name != "" {
		flags |= reqName
	}
	if r.Prefix != "" {
		flags |= reqPrefix
	}
	if len(r.Signals) != 0 {
		flags |= reqSignals
	}
	if r.Value != 0 {
		flags |= reqValue
	}
	if r.Addr != 0 {
		flags |= reqAddr
	}
	if r.N != 0 {
		flags |= reqN
	}
	if r.Mode != "" {
		flags |= reqMode
	}
	if r.Enable {
		flags |= reqEnable
	}
	if len(r.Items) != 0 {
		flags |= reqItems
	}
	if r.Stream != 0 {
		flags |= reqStream
	}
	b = appendUvarint(b, flags)
	if flags&reqVersion != 0 {
		b = appendZigzag(b, int64(r.Version))
	}
	if flags&reqSession != 0 {
		b = appendUvarint(b, r.Session)
	}
	if flags&reqClient != 0 {
		b = appendUvarint(b, r.Client)
	}
	if flags&reqSeq != 0 {
		b = appendUvarint(b, r.Seq)
	}
	if flags&reqDesign != 0 {
		b = appendString(b, r.Design)
	}
	if flags&reqName != 0 {
		b = appendString(b, r.Name)
	}
	if flags&reqPrefix != 0 {
		b = appendString(b, r.Prefix)
	}
	if flags&reqSignals != 0 {
		b = appendStrings(b, r.Signals)
	}
	if flags&reqValue != 0 {
		b = appendUvarint(b, r.Value)
	}
	if flags&reqAddr != 0 {
		b = appendZigzag(b, int64(r.Addr))
	}
	if flags&reqN != 0 {
		b = appendZigzag(b, int64(r.N))
	}
	if flags&reqMode != 0 {
		b = appendString(b, r.Mode)
	}
	if flags&reqItems != 0 {
		b = appendUvarint(b, uint64(len(r.Items)))
		for i := range r.Items {
			it := &r.Items[i]
			var f uint64
			if it.Mem {
				f |= 1
			}
			if it.Addr != 0 {
				f |= 2
			}
			if it.Value != 0 {
				f |= 4
			}
			b = appendUvarint(b, f)
			b = appendString(b, it.Name)
			if f&2 != 0 {
				b = appendZigzag(b, int64(it.Addr))
			}
			if f&4 != 0 {
				b = appendUvarint(b, it.Value)
			}
		}
	}
	if flags&reqStream != 0 {
		b = appendUvarint(b, r.Stream)
	}
	return b
}

func appendResponse(b []byte, r *Response) ([]byte, error) {
	b = append(b, kindResp)
	b = appendUvarint(b, r.ID)
	var flags uint64
	if r.Err != nil {
		flags |= respErr
	}
	if r.Version != 0 {
		flags |= respVersion
	}
	if r.Client != 0 {
		flags |= respClient
	}
	if r.Session != 0 {
		flags |= respSession
	}
	if r.Design != "" {
		flags |= respDesign
	}
	if r.Device != "" {
		flags |= respDevice
	}
	if r.Report != "" {
		flags |= respReport
	}
	if len(r.Watches) != 0 {
		flags |= respWatches
	}
	if r.Value != 0 {
		flags |= respValue
	}
	if len(r.Values) != 0 {
		flags |= respValues
	}
	if r.Ran != 0 {
		flags |= respRan
	}
	if r.Paused {
		flags |= respPaused
	}
	if r.Cycles != 0 {
		flags |= respCycles
	}
	if r.ElapsedNS != 0 {
		flags |= respElapsed
	}
	if r.Regs != 0 {
		flags |= respRegs
	}
	if r.Mems != 0 {
		flags |= respMems
	}
	if len(r.Lines) != 0 {
		flags |= respLines
	}
	if r.Trace != nil {
		flags |= respTrace
	}
	if r.Stats != nil {
		flags |= respStats
	}
	if r.Stream != 0 {
		flags |= respStream
	}
	b = appendUvarint(b, flags)
	if flags&respErr != 0 {
		b = appendEnum(b, errCodes, r.Err.Code)
		b = appendString(b, r.Err.Msg)
	}
	if flags&respVersion != 0 {
		b = appendZigzag(b, int64(r.Version))
	}
	if flags&respClient != 0 {
		b = appendUvarint(b, r.Client)
	}
	if flags&respSession != 0 {
		b = appendUvarint(b, r.Session)
	}
	if flags&respDesign != 0 {
		b = appendString(b, r.Design)
	}
	if flags&respDevice != 0 {
		b = appendString(b, r.Device)
	}
	if flags&respReport != 0 {
		b = appendString(b, r.Report)
	}
	if flags&respWatches != 0 {
		b = appendStrings(b, r.Watches)
	}
	if flags&respValue != 0 {
		b = appendUvarint(b, r.Value)
	}
	if flags&respValues != 0 {
		b = appendUint64s(b, r.Values)
	}
	if flags&respRan != 0 {
		b = appendZigzag(b, int64(r.Ran))
	}
	if flags&respCycles != 0 {
		b = appendUvarint(b, r.Cycles)
	}
	if flags&respElapsed != 0 {
		b = appendZigzag(b, r.ElapsedNS)
	}
	if flags&respRegs != 0 {
		b = appendZigzag(b, int64(r.Regs))
	}
	if flags&respMems != 0 {
		b = appendZigzag(b, int64(r.Mems))
	}
	if flags&respLines != 0 {
		b = appendStrings(b, r.Lines)
	}
	if flags&respTrace != 0 {
		b = appendStrings(b, r.Trace.Signals)
		b = appendUvarint(b, uint64(len(r.Trace.Widths)))
		for _, w := range r.Trace.Widths {
			b = appendZigzag(b, int64(w))
		}
		b = appendRows(b, r.Trace.Rows)
	}
	if flags&respStats != 0 {
		// Stats is the cold control plane (one OpStatus per scrape); a JSON
		// sub-blob keeps the binary codec small without freezing the counter
		// set into the framing.
		blob, err := json.Marshal(r.Stats)
		if err != nil {
			return b, fmt.Errorf("wire: encode stats: %w", err)
		}
		b = appendUvarint(b, uint64(len(blob)))
		b = append(b, blob...)
	}
	if flags&respStream != 0 {
		b = appendUvarint(b, r.Stream)
	}
	return b, nil
}

func appendEvent(b []byte, e *Event) []byte {
	b = append(b, kindEvt)
	b = appendEnum(b, evtCodes, e.Kind)
	var flags uint64
	if e.Session != 0 {
		flags |= evfSession
	}
	if e.Op != "" {
		flags |= evfOp
	}
	if e.Cycles != 0 {
		flags |= evfCycles
	}
	if e.Detail != "" {
		flags |= evfDetail
	}
	if e.Stream != 0 {
		flags |= evfStream
	}
	if e.Seq != 0 {
		flags |= evfSeq
	}
	if e.Dropped != 0 {
		flags |= evfDropped
	}
	if e.Count != 0 {
		flags |= evfCount
	}
	if len(e.Names) != 0 {
		flags |= evfNames
	}
	if len(e.Deltas) != 0 {
		flags |= evfDeltas
	}
	if len(e.Rows) != 0 {
		flags |= evfRows
	}
	b = appendUvarint(b, flags)
	if flags&evfSession != 0 {
		b = appendUvarint(b, e.Session)
	}
	if flags&evfOp != 0 {
		b = appendEnum(b, opCodes, e.Op)
	}
	if flags&evfCycles != 0 {
		b = appendUvarint(b, e.Cycles)
	}
	if flags&evfDetail != 0 {
		b = appendString(b, e.Detail)
	}
	if flags&evfStream != 0 {
		b = appendUvarint(b, e.Stream)
	}
	if flags&evfSeq != 0 {
		b = appendUvarint(b, e.Seq)
	}
	if flags&evfDropped != 0 {
		b = appendUvarint(b, e.Dropped)
	}
	if flags&evfCount != 0 {
		b = appendUvarint(b, e.Count)
	}
	if flags&evfNames != 0 {
		b = appendStrings(b, e.Names)
	}
	if flags&evfDeltas != 0 {
		b = appendUint64s(b, e.Deltas)
	}
	if flags&evfRows != 0 {
		b = appendRows(b, e.Rows)
	}
	return b
}

// ---- decode-side primitives ----

// reader walks a payload slice. Every length and count is bounded by the
// remaining bytes before any allocation, so a hostile frame cannot make
// the decoder allocate more than a small multiple of the (MaxFrame-
// bounded) payload it actually sent.
type reader struct {
	b   []byte
	pos int
	// intern dedupes repeated strings (signal names on the peek/poke hot
	// path); the map lookup on a []byte key does not allocate, so steady-
	// state decoding of a familiar name is allocation-free.
	intern map[string]string
}

var errTruncated = errors.New("wire: truncated binary frame")

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, errTruncated
	}
	r.pos += n
	return v, nil
}

func (r *reader) zigzag() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (r *reader) intVal() (int, error) {
	v, err := r.zigzag()
	if err != nil {
		return 0, err
	}
	if v < int64(minInt) || v > int64(maxInt) {
		return 0, fmt.Errorf("wire: integer %d out of range", v)
	}
	return int(v), nil
}

const (
	maxInt = int(^uint(0) >> 1)
	minInt = -maxInt - 1
)

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.pos) {
		return nil, errTruncated
	}
	s := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return s, nil
}

// maxIntern bounds the intern table so a peer cycling through unique
// names cannot grow it without bound.
const maxIntern = 4096

func (r *reader) str() (string, error) {
	b, err := r.bytes()
	if err != nil {
		return "", err
	}
	if len(b) == 0 {
		return "", nil
	}
	if r.intern != nil {
		if s, ok := r.intern[string(b)]; ok {
			return s, nil
		}
		s := string(b)
		if len(r.intern) < maxIntern {
			r.intern[s] = s
		}
		return s, nil
	}
	return string(b), nil
}

func (r *reader) strs() ([]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.pos) { // every string costs >= 1 byte
		return nil, errTruncated
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *reader) uint64s(reuse []uint64) ([]uint64, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.pos) { // every value costs >= 1 byte
		return nil, errTruncated
	}
	var out []uint64
	if uint64(cap(reuse)) >= n {
		out = reuse[:n]
	} else {
		out = make([]uint64, n)
	}
	for i := range out {
		if out[i], err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *reader) rows() ([][]uint64, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.pos) {
		return nil, errTruncated
	}
	out := make([][]uint64, n)
	for i := range out {
		if out[i], err = r.uint64s(nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// enum decodes a table-coded string (code 0 = literal escape).
func (r *reader) enum(names []string) (string, error) {
	c, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if c == 0 {
		return r.str()
	}
	if c >= uint64(len(names)) {
		return "", fmt.Errorf("wire: unknown enum code %d", c)
	}
	return names[c], nil
}

// DecodeMessage decodes one v3 payload (the bytes after the length
// prefix) into m. The out-structs (req/resp/evt) receive the decoded
// fields; slices already present in them are reused when large enough.
func decodePayload(payload []byte, m *Message, req *Request, resp *Response, evt *Event, intern map[string]string) error {
	if len(payload) == 0 {
		return fmt.Errorf("wire: empty frame")
	}
	r := reader{b: payload, pos: 1, intern: intern}
	switch payload[0] {
	case kindReq:
		if err := r.request(req); err != nil {
			return err
		}
		m.T, m.Req, m.Resp, m.Evt = TReq, req, nil, nil
	case kindResp:
		if err := r.response(resp); err != nil {
			return err
		}
		m.T, m.Req, m.Resp, m.Evt = TResp, nil, resp, nil
	case kindEvt:
		if err := r.event(evt); err != nil {
			return err
		}
		m.T, m.Req, m.Resp, m.Evt = TEvt, nil, nil, evt
	default:
		return fmt.Errorf("wire: unknown binary frame kind %#x", payload[0])
	}
	if r.pos != len(payload) {
		return fmt.Errorf("wire: %d trailing bytes after binary frame", len(payload)-r.pos)
	}
	return nil
}

func (r *reader) request(q *Request) error {
	items := q.Items
	*q = Request{}
	var err error
	if q.ID, err = r.uvarint(); err != nil {
		return err
	}
	if q.Op, err = r.enum(opNames); err != nil {
		return err
	}
	flags, err := r.uvarint()
	if err != nil {
		return err
	}
	if flags >= 1<<15 {
		return fmt.Errorf("wire: unknown request flags %#x", flags)
	}
	if flags&reqVersion != 0 {
		if q.Version, err = r.intVal(); err != nil {
			return err
		}
	}
	if flags&reqSession != 0 {
		if q.Session, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&reqClient != 0 {
		if q.Client, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&reqSeq != 0 {
		if q.Seq, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&reqDesign != 0 {
		if q.Design, err = r.str(); err != nil {
			return err
		}
	}
	if flags&reqName != 0 {
		if q.Name, err = r.str(); err != nil {
			return err
		}
	}
	if flags&reqPrefix != 0 {
		if q.Prefix, err = r.str(); err != nil {
			return err
		}
	}
	if flags&reqSignals != 0 {
		if q.Signals, err = r.strs(); err != nil {
			return err
		}
	}
	if flags&reqValue != 0 {
		if q.Value, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&reqAddr != 0 {
		if q.Addr, err = r.intVal(); err != nil {
			return err
		}
	}
	if flags&reqN != 0 {
		if q.N, err = r.intVal(); err != nil {
			return err
		}
	}
	if flags&reqMode != 0 {
		if q.Mode, err = r.str(); err != nil {
			return err
		}
	}
	q.Enable = flags&reqEnable != 0
	if flags&reqItems != 0 {
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.b)-r.pos) { // every item costs >= 2 bytes
			return errTruncated
		}
		if uint64(cap(items)) >= n {
			q.Items = items[:n]
		} else {
			q.Items = make([]BatchItem, n)
		}
		for i := range q.Items {
			it := &q.Items[i]
			*it = BatchItem{}
			f, err := r.uvarint()
			if err != nil {
				return err
			}
			if f >= 1<<3 {
				return fmt.Errorf("wire: unknown batch-item flags %#x", f)
			}
			it.Mem = f&1 != 0
			if it.Name, err = r.str(); err != nil {
				return err
			}
			if f&2 != 0 {
				if it.Addr, err = r.intVal(); err != nil {
					return err
				}
			}
			if f&4 != 0 {
				if it.Value, err = r.uvarint(); err != nil {
					return err
				}
			}
		}
	}
	if flags&reqStream != 0 {
		if q.Stream, err = r.uvarint(); err != nil {
			return err
		}
	}
	return nil
}

func (r *reader) response(p *Response) error {
	values := p.Values
	*p = Response{}
	var err error
	if p.ID, err = r.uvarint(); err != nil {
		return err
	}
	flags, err := r.uvarint()
	if err != nil {
		return err
	}
	if flags >= 1<<20 {
		return fmt.Errorf("wire: unknown response flags %#x", flags)
	}
	if flags&respErr != 0 {
		e := &Error{}
		if e.Code, err = r.enum(errNames); err != nil {
			return err
		}
		if e.Msg, err = r.str(); err != nil {
			return err
		}
		p.Err = e
	}
	if flags&respVersion != 0 {
		if p.Version, err = r.intVal(); err != nil {
			return err
		}
	}
	if flags&respClient != 0 {
		if p.Client, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&respSession != 0 {
		if p.Session, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&respDesign != 0 {
		if p.Design, err = r.str(); err != nil {
			return err
		}
	}
	if flags&respDevice != 0 {
		if p.Device, err = r.str(); err != nil {
			return err
		}
	}
	if flags&respReport != 0 {
		if p.Report, err = r.str(); err != nil {
			return err
		}
	}
	if flags&respWatches != 0 {
		if p.Watches, err = r.strs(); err != nil {
			return err
		}
	}
	if flags&respValue != 0 {
		if p.Value, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&respValues != 0 {
		if p.Values, err = r.uint64s(values); err != nil {
			return err
		}
	}
	if flags&respRan != 0 {
		if p.Ran, err = r.intVal(); err != nil {
			return err
		}
	}
	p.Paused = flags&respPaused != 0
	if flags&respCycles != 0 {
		if p.Cycles, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&respElapsed != 0 {
		if p.ElapsedNS, err = r.zigzag(); err != nil {
			return err
		}
	}
	if flags&respRegs != 0 {
		if p.Regs, err = r.intVal(); err != nil {
			return err
		}
	}
	if flags&respMems != 0 {
		if p.Mems, err = r.intVal(); err != nil {
			return err
		}
	}
	if flags&respLines != 0 {
		if p.Lines, err = r.strs(); err != nil {
			return err
		}
	}
	if flags&respTrace != 0 {
		t := &Trace{}
		if t.Signals, err = r.strs(); err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.b)-r.pos) {
			return errTruncated
		}
		t.Widths = make([]int, n)
		for i := range t.Widths {
			if t.Widths[i], err = r.intVal(); err != nil {
				return err
			}
		}
		if t.Rows, err = r.rows(); err != nil {
			return err
		}
		p.Trace = t
	}
	if flags&respStats != 0 {
		blob, err := r.bytes()
		if err != nil {
			return err
		}
		st := &Stats{}
		if err := json.Unmarshal(blob, st); err != nil {
			return fmt.Errorf("wire: decode stats: %w", err)
		}
		p.Stats = st
	}
	if flags&respStream != 0 {
		if p.Stream, err = r.uvarint(); err != nil {
			return err
		}
	}
	return nil
}

func (r *reader) event(e *Event) error {
	*e = Event{}
	var err error
	if e.Kind, err = r.enum(evtNames); err != nil {
		return err
	}
	flags, err := r.uvarint()
	if err != nil {
		return err
	}
	if flags >= 1<<11 {
		return fmt.Errorf("wire: unknown event flags %#x", flags)
	}
	if flags&evfSession != 0 {
		if e.Session, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&evfOp != 0 {
		if e.Op, err = r.enum(opNames); err != nil {
			return err
		}
	}
	if flags&evfCycles != 0 {
		if e.Cycles, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&evfDetail != 0 {
		if e.Detail, err = r.str(); err != nil {
			return err
		}
	}
	if flags&evfStream != 0 {
		if e.Stream, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&evfSeq != 0 {
		if e.Seq, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&evfDropped != 0 {
		if e.Dropped, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&evfCount != 0 {
		if e.Count, err = r.uvarint(); err != nil {
			return err
		}
	}
	if flags&evfNames != 0 {
		if e.Names, err = r.strs(); err != nil {
			return err
		}
	}
	if flags&evfDeltas != 0 {
		if e.Deltas, err = r.uint64s(nil); err != nil {
			return err
		}
	}
	if flags&evfRows != 0 {
		if e.Rows, err = r.rows(); err != nil {
			return err
		}
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

// Reset points the encoder at a new connection (client reconnect).
func (e *Encoder) Reset(w io.Writer) { e.w = w; e.buf = e.buf[:0] }

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
	r      io.Reader
	buf    []byte
	intern map[string]string
	reuse  bool

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
	return &Decoder{r: r, intern: make(map[string]string)}
}

// Reset points the decoder at a new connection (client reconnect).
func (d *Decoder) Reset(r io.Reader) { d.r = r }

// SetReuse opts into struct reuse: each Next overwrites the previously
// returned message. Only safe when every message is fully consumed
// before the next call (benchmarks, tight proxy loops) — the server and
// client keep it off because they hand decoded messages to other
// goroutines.
func (d *Decoder) SetReuse(on bool) { d.reuse = on }

// Next reads one frame. It returns the message, the bytes consumed, and
// an error; truncation and oversize behave exactly like ReadMessage.
func (d *Decoder) Next() (*Message, int, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(d.hdr[:])
	if n == 0 {
		return nil, 4, fmt.Errorf("wire: empty frame")
	}
	if n > MaxFrame {
		return nil, 4, ErrFrameTooLarge
	}
	if uint32(cap(d.buf)) < n {
		d.buf = make([]byte, roundCap(n))
	}
	payload := d.buf[:n]
	if _, err := io.ReadFull(d.r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, 4, err
	}
	m, req, resp, evt := &d.m, &d.req, &d.resp, &d.evt
	if !d.reuse {
		m, req, resp, evt = &Message{}, &Request{}, &Response{}, &Event{}
	}
	if err := decodePayload(payload, m, req, resp, evt, d.intern); err != nil {
		return nil, 4 + int(n), err
	}
	return m, 4 + int(n), nil
}

// roundCap rounds a payload size up to a power of two so a stream of
// slightly-growing frames doesn't reallocate on every frame.
func roundCap(n uint32) uint32 {
	if n < 512 {
		return 512
	}
	return 1 << bits.Len32(n-1)
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
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, 0, io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, 4, fmt.Errorf("wire: empty frame")
	}
	if n > MaxFrame {
		return nil, 4, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, 4, err
	}
	m := &Message{}
	if err := decodePayload(payload, m, &Request{}, &Response{}, &Event{}, nil); err != nil {
		return nil, 4 + int(n), err
	}
	return m, 4 + int(n), nil
}
