// Package wire is the zoomied debug protocol: the request/response/event
// message set spoken between the debug server (internal/server, and the
// zfleet coordinator in front of it) and its clients (internal/client,
// cmd/zoomie -connect). It is the network analogue of the gdb remote
// serial protocol for Zoomie's debugger — every session op of the facade
// has a wire op, so a remote REPL is command-for-command equivalent to
// the in-process one.
//
// Every frame is a 4-byte big-endian length and a payload. The first
// frame each way is the hello, in JSON (ServeHello answers it for every
// server); every frame after it uses the binary codec in binary.go.
// Requests carry a client-chosen id echoed by the matching response, so
// clients may pipeline; events (breakpoint hits, idle detaches) arrive
// unsolicited on the same connection for subscribers.
package wire

import (
	"context"
	"errors"
	"fmt"

	"zoomie/internal/dberr"
)

// Version is the protocol version this build speaks. The first frame on
// a connection must be an OpHello request carrying the client's version;
// a client offering less than MinVersion is refused with CodeVersion so
// it fails fast instead of misparsing, and every other hello is answered
// with Version.
//
// Version history:
//
//	1 — initial protocol, length-prefixed JSON frames.
//	2 — batched data plane: OpPeekBatch/OpPokeBatch with Request.Items/
//	    Values and Response.Values, plus typed debugger error codes
//	    (CodeUnknownState … CodeCancelled) that unwrap to dberr
//	    sentinels client-side.
//	3 — binary framing and the stream channel. After the JSON hello
//	    exchange both directions switch to the pooled varint codec in
//	    binary.go: the same 4-byte length prefix, but a tagged binary
//	    body instead of JSON — no reflection, no per-frame allocations
//	    on the peek/poke hot path (see Encoder/Decoder). v3 also adds
//	    the flow-controlled stream ops (OpStreamOpen/Credit/Close) and
//	    the EvtStream event frames that carry aggregated counter deltas
//	    and ILA capture windows server→client.
//
// Versions 1 and 2 are retired: no server negotiates down to them.
const Version = 3

// MinVersion is the oldest protocol version a server accepts in a hello.
const MinVersion = 3

// Message is the frame envelope: exactly one of Req, Resp, Evt is set,
// discriminated by T.
type Message struct {
	T    string    `json:"t"` // "req" | "resp" | "evt"
	Req  *Request  `json:"req,omitempty"`
	Resp *Response `json:"resp,omitempty"`
	Evt  *Event    `json:"evt,omitempty"`
}

// Message types for Message.T.
const (
	TReq  = "req"
	TResp = "resp"
	TEvt  = "evt"
)

// Operations. Session-scoped ops require Request.Session.
const (
	OpHello     = "hello"     // handshake: Version
	OpAttach    = "attach"    // Design -> Session, Device, Report, Watches
	OpDetach    = "detach"    // Session
	OpRun       = "run"       // Session, N wall ticks
	OpPause     = "pause"     // Session
	OpResume    = "resume"    // Session
	OpStep      = "step"      // Session, N MUT cycles
	OpUntil     = "until"     // Session, N max ticks -> Ran
	OpPeek      = "peek"      // Session, Name -> Value
	OpPoke      = "poke"      // Session, Name, Value
	OpPeekMem   = "peekmem"   // Session, Name, Addr -> Value
	OpPokeMem   = "pokemem"   // Session, Name, Addr, Value
	OpBreak     = "break"     // Session, Name, Value, Mode ("any"|"all")
	OpClearBrk  = "clearbrk"  // Session
	OpAssert    = "assert"    // Session, Name, Enable
	OpSnapSave  = "snapsave"  // Session -> Regs, Mems, Cycles
	OpSnapRest  = "snaprest"  // Session (restores last saved snapshot)
	OpInspect   = "inspect"   // Session, Prefix -> Lines
	OpTrace     = "trace"     // Session, Signals, N -> Trace
	OpInput     = "input"     // Session, Name, Value (top-level input port)
	OpOutput    = "output"    // Session, Name -> Value (top-level output)
	OpSessStat  = "sessstat"  // Session -> Paused, Cycles, ElapsedNS
	OpStatus    = "status"    // -> Stats (server-wide counters)
	OpSubscribe = "subscribe" // Session (0 = all) -> event delivery on

	// Version 2 ops: the batched data plane. The session actor executes
	// the whole batch as one frame plan — one readback (and for pokes one
	// writeback) per SLR — instead of one cable pass per name.
	OpPeekBatch = "peekbatch" // Session, Items -> Values (v2+)
	OpPokeBatch = "pokebatch" // Session, Items (with Value each) (v2+)

	// Version 3 ops: the flow-controlled stream channel, multiplexed on
	// the same connection. A stream pushes server-aggregated observability
	// frames (counter deltas, ILA capture windows) to the client as
	// EvtStream events, credit-gated so a slow client sheds frames
	// (drop-oldest, counted) instead of stalling the session actor.
	OpStreamOpen   = "streamopen"   // Session, Name ("counters"|"ila"), N credits, Value flush-interval-ms -> Stream (v3+)
	OpStreamCredit = "streamcredit" // Stream, N additional credits (v3+)
	OpStreamClose  = "streamclose"  // Stream (v3+)

	// Time-travel ops (v3+): the history engine's record/replay surface.
	// They reuse existing Request/Response fields, so v3 framing carries
	// them without new presence bits.
	OpHistSeek      = "histseek"      // Session, Value target cycle -> Cycles, Ran (timeline id)
	OpHistRewind    = "histrewind"    // Session, N cycles back -> Cycles, Ran (timeline id)
	OpHistRevCont   = "histrevcont"   // Session -> Cycles, Paused (true = trigger found)
	OpHistSave      = "histsave"      // Session, Name -> Regs, Mems, Cycles
	OpHistLoad      = "histload"      // Session, Name -> Cycles
	OpHistStat      = "histstat"      // Session -> Lines
	OpHistTimelines = "histtimelines" // Session -> Lines

	// Fleet ops (v3+): the coordinator's session-mobility and admin
	// surface. StateExport/StateImport are the checkpoint transport for
	// cross-daemon failover: export returns the session's full-scope
	// snapshot plus its encoded history engine as one binary blob in
	// Response.Blob; import is attach-with-state — the same blob travels
	// back in Request.Blob and the server restores a brand-new session
	// from it (breakpoints, pause state and time travel intact).
	OpStateExport = "stateexport" // Session -> Blob, Cycles
	OpStateImport = "stateimport" // Design, Blob -> Session, Device, Report, Watches
	OpFleetStat   = "fleetstat"   // (zfleet only) -> Lines (per-daemon rows), Stats
	OpFleetDrain  = "fleetdrain"  // (zfleet only) Name daemon addr, Enable -> Lines

	// Compile farm ops (v3+): the content-addressed compile service.
	// Submit names a catalog design and a mode — "vti" (initial compile),
	// "recompile" (canonical debug edit N of the design's partition) or
	// "check" (synchronous warm/cold bit-identity oracle, Lines = [cold,
	// warm]). The response carries the farm job id in Value, the attach
	// acknowledgement in Lines[0], and Ran=1 when the job is already
	// terminal (cache hits resolve without polling). Status with Value=0
	// lists every job; Cancel releases the caller's reference — the job's
	// context is cancelled only when its last holder lets go, and a client
	// disconnect releases everything the connection still holds.
	OpCompileSubmit = "compilesubmit" // Design, Mode, N edit tag -> Value job id, Lines, Ran
	OpCompileStatus = "compilestatus" // Value job id (0 = all) -> Lines, Ran
	OpCompileCancel = "compilecancel" // Value job id -> Lines
)

// Stream kinds for OpStreamOpen's Name field.
const (
	StreamCounters = "counters" // aggregated per-session + server counter deltas
	StreamILA      = "ila"      // completed ILA capture windows, re-armed after upload
	StreamHistory  = "history"  // new history keyframes ([pos, cycle, bytes] rows) for timeline scrubbing
	StreamCompile  = "compile"  // compile job progress: one frame per phase entry / terminal state
)

// Request is a client command. Unused fields stay zero and are omitted.
type Request struct {
	ID      uint64   `json:"id"`
	Op      string   `json:"op"`
	Version int      `json:"ver,omitempty"`
	Session uint64   `json:"sid,omitempty"`
	Design  string   `json:"design,omitempty"`
	Name    string   `json:"name,omitempty"`
	Prefix  string   `json:"prefix,omitempty"`
	Signals []string `json:"signals,omitempty"`
	Value   uint64   `json:"value,omitempty"`
	Addr    int      `json:"addr,omitempty"`
	N       int      `json:"n,omitempty"`
	Mode    string   `json:"mode,omitempty"`
	Enable  bool     `json:"enable,omitempty"`
	// Items carries a batched peek/poke request set (v2+).
	Items []BatchItem `json:"items,omitempty"`
	// Stream addresses an open stream for credit/close ops (v3+).
	Stream uint64 `json:"stream,omitempty"`
	// Blob carries an OpStateImport's session state, as OpStateExport
	// returned it.
	Blob []byte `json:"blob,omitempty"`
}

// BatchItem is one entry of an OpPeekBatch/OpPokeBatch request — the wire
// form of a dbg.PlanItem.
type BatchItem struct {
	Name  string `json:"name"`
	Mem   bool   `json:"mem,omitempty"`
	Addr  int    `json:"addr,omitempty"`
	Value uint64 `json:"value,omitempty"` // poke batches only
}

// Response answers the request with the same ID. Err is nil on success.
type Response struct {
	ID      uint64 `json:"id"`
	Err     *Error `json:"err,omitempty"`
	Version int    `json:"ver,omitempty"`

	Session uint64   `json:"sid,omitempty"`
	Design  string   `json:"design,omitempty"`
	Device  string   `json:"device,omitempty"`
	Report  string   `json:"report,omitempty"`
	Watches []string `json:"watches,omitempty"`

	Value     uint64   `json:"value,omitempty"`
	Values    []uint64 `json:"values,omitempty"` // peekbatch results, item order
	Ran       int      `json:"ran,omitempty"`
	Paused    bool     `json:"paused,omitempty"`
	Cycles    uint64   `json:"cycles,omitempty"`
	ElapsedNS int64    `json:"elapsed_ns,omitempty"`
	Regs      int      `json:"regs,omitempty"`
	Mems      int      `json:"mems,omitempty"`
	Lines     []string `json:"lines,omitempty"`
	Trace     *Trace   `json:"trace,omitempty"`
	Stats     *Stats   `json:"stats,omitempty"`
	// Stream is the server-assigned stream id answering OpStreamOpen (v3+).
	Stream uint64 `json:"stream,omitempty"`
	// Blob is an OpStateExport's session state.
	Blob []byte `json:"blob,omitempty"`
}

// Event is an unsolicited server notification.
type Event struct {
	Kind    string `json:"kind"` // "paused" | "detached" | "shutdown"
	Session uint64 `json:"sid,omitempty"`
	Op      string `json:"op,omitempty"` // the command that surfaced the pause
	Cycles  uint64 `json:"cycles,omitempty"`
	Detail  string `json:"detail,omitempty"`

	// Stream-frame fields (v3+, Kind == EvtStream): one frame carries a
	// whole aggregation window, so millions of trace events/sec become a
	// handful of frames/sec on the wire. A stream frame with a Detail is
	// the stream's last: its producer ended, and Detail says why.
	Stream  uint64 `json:"stream,omitempty"`  // stream id this frame belongs to
	Seq     uint64 `json:"seq,omitempty"`     // per-stream frame sequence number
	Dropped uint64 `json:"dropped,omitempty"` // frames shed under backpressure so far
	Count   uint64 `json:"count,omitempty"`   // raw events aggregated into this frame
	// Counter frames: parallel name/delta arrays of non-zero counters.
	Names  []string `json:"names,omitempty"`
	Deltas []uint64 `json:"deltas,omitempty"`
	// ILA frames: one decoded capture window, Names naming the probes and
	// Rows holding one value per probe per captured cycle.
	Rows [][]uint64 `json:"rows,omitempty"`
}

// Event kinds.
const (
	EvtPaused      = "paused"            // design transitioned running -> paused (breakpoint hit)
	EvtDetached    = "detached"          // session torn down (idle timeout, shutdown)
	EvtShutdown    = "shutdown"          // server is shutting down
	EvtQuarantined = "board_quarantined" // a board failed health checks and left the pool
	EvtMigrated    = "session_migrated"  // a session moved to a fresh board from its last good snapshot
	EvtStream      = "stream"            // one flow-controlled stream frame (v3+)
)

// Trace is a StepTrace flattened for the wire.
type Trace struct {
	Signals []string   `json:"signals"`
	Widths  []int      `json:"widths"`
	Rows    [][]uint64 `json:"rows"`
}

// Stats is the server-wide counter snapshot returned by OpStatus.
type Stats struct {
	SessionsActive int64 `json:"sessions_active"`
	SessionsTotal  int64 `json:"sessions_total"`
	CommandsServed int64 `json:"commands_served"`
	BytesIn        int64 `json:"bytes_in"`
	BytesOut       int64 `json:"bytes_out"`
	Events         int64 `json:"events"`
	EventsDropped  int64 `json:"events_dropped"`
	IdleReaped     int64 `json:"idle_reaped"`
	Interleaved    int64 `json:"interleaved"` // serialized-session violations; must stay 0
	PoolCapacity   int64 `json:"pool_capacity"`
	PoolInUse      int64 `json:"pool_in_use"`
	PoolDenied     int64 `json:"pool_denied"`

	// Robustness counters (PR 3): board health and chaos recovery. All
	// zero when fault injection and probing are off.
	PoolQuarantined int64 `json:"pool_quarantined"`  // boards currently quarantined
	Quarantines     int64 `json:"quarantines"`       // boards ejected, lifetime
	Probes          int64 `json:"probes"`            // health probes run
	ProbeFailures   int64 `json:"probe_failures"`    // health probes that failed
	Migrations      int64 `json:"migrations"`        // sessions moved to a fresh board
	MigrationsFail  int64 `json:"migrations_failed"` // migrations that could not complete
	ReplayHits      int64 `json:"replay_hits"`       // always 0: no request is replayed (zperf still reads the field)
	JtagRetries     int64 `json:"jtag_retries"`      // stream executions retried (transients)
	JtagReReads     int64 `json:"jtag_rereads"`      // frame reads beyond the agreement depth
	JtagRewrites    int64 `json:"jtag_rewrites"`     // frames rewritten after CRC mismatch
	FaultsInjected  int64 `json:"faults_injected"`   // faults the chaos injectors fired

	// Streaming observability counters (v3).
	StreamsOpened int64 `json:"streams_opened"` // stream channels opened, lifetime
	StreamFrames  int64 `json:"stream_frames"`  // stream frames delivered to clients
	StreamEvents  int64 `json:"stream_events"`  // raw events aggregated into those frames
	StreamDropped int64 `json:"stream_dropped"` // stream frames shed under backpressure
	IlaWindows    int64 `json:"ila_windows"`    // ILA capture windows uploaded and streamed

	// LatencyBuckets counts served commands by handling latency, in
	// cumulative-upper-bound order matching LatencyBounds.
	LatencyBuckets []int64 `json:"latency_us,omitempty"`
}

// LatencyBounds are the upper bounds (microseconds; last is +inf) of
// Stats.LatencyBuckets.
var LatencyBounds = []int64{100, 1000, 10_000, 100_000, 1_000_000, -1}

// Error codes. CodeOp wraps an underlying debugger error whose message is
// surfaced verbatim, keeping remote error text identical to in-process.
const (
	CodeBadRequest    = "bad_request"
	CodeUnknownOp     = "unknown_op"
	CodeUnknownDesign = "unknown_design"
	CodeForbidden     = "forbidden"
	CodeNoSession     = "no_session"
	CodePoolExhausted = "pool_exhausted"
	CodeBusy          = "busy"
	CodeVersion       = "version_mismatch"
	CodeShutdown      = "shutdown"
	CodeOp            = "op_failed"
	CodeTimeout       = "timeout"      // client-side: no response within the call timeout
	CodeConnLost      = "conn_lost"    // client-side: the connection died
	CodeBoardFailed   = "board_failed" // board wedged/unrecoverable and no migration possible
	CodeNoStream      = "no_stream"    // stream id unknown on this connection (v3+)

	// Typed debugger error codes (v2+). These refine CodeOp: the message
	// is still the exact server-side error string, but the code lets
	// errors.Is classify the failure client-side through Error.Unwrap.
	CodeUnknownState  = "unknown_state"  // dberr.ErrUnknownState
	CodeIsMemory      = "is_memory"      // dberr.ErrIsMemory
	CodeIsRegister    = "is_register"    // dberr.ErrIsRegister
	CodeOutOfRange    = "out_of_range"   // dberr.ErrOutOfRange
	CodeNotWatched    = "not_watched"    // dberr.ErrNotWatched
	CodeWidthMismatch = "width_mismatch" // dberr.ErrWidthMismatch
	CodePartialBatch  = "partial_batch"  // dberr.ErrPartialBatch
	CodeCancelled     = "cancelled"      // context.Canceled / DeadlineExceeded

	// CodeHistoryHorizon (v3+) refines CodeOp for seeks/rewinds outside
	// recorded history: dberr.ErrHistoryHorizon.
	CodeHistoryHorizon = "history_horizon"

	// CodeOverloaded (v3+): admission control shed the request — the
	// fleet (or a daemon) is at capacity and chose to refuse fast rather
	// than queue. The response's Value field carries a retry-after hint
	// in milliseconds for a caller that retries the attach. Existing
	// sessions are never shed — only new admissions. Unwraps to
	// dberr.ErrOverloaded.
	CodeOverloaded = "overloaded"
)

// codeSentinel maps typed error codes to the sentinel an unwrapped wire
// error matches with errors.Is — the inverse of CodeFor.
var codeSentinel = map[string]error{
	CodeUnknownState:   dberr.ErrUnknownState,
	CodeIsMemory:       dberr.ErrIsMemory,
	CodeIsRegister:     dberr.ErrIsRegister,
	CodeOutOfRange:     dberr.ErrOutOfRange,
	CodeNotWatched:     dberr.ErrNotWatched,
	CodeWidthMismatch:  dberr.ErrWidthMismatch,
	CodePartialBatch:   dberr.ErrPartialBatch,
	CodeCancelled:      context.Canceled,
	CodeHistoryHorizon: dberr.ErrHistoryHorizon,
	CodeOverloaded:     dberr.ErrOverloaded,
}

// CodeFor classifies a debugger error into its typed wire code, falling
// back to CodeOp for errors with no dberr sentinel. Cancellation wins
// over any other classification so clients can always detect it.
func CodeFor(err error) string {
	if err == nil {
		return ""
	}
	if isCancellation(err) {
		return CodeCancelled
	}
	switch dberr.Sentinel(err) {
	case dberr.ErrUnknownState:
		return CodeUnknownState
	case dberr.ErrIsMemory:
		return CodeIsMemory
	case dberr.ErrIsRegister:
		return CodeIsRegister
	case dberr.ErrOutOfRange:
		return CodeOutOfRange
	case dberr.ErrNotWatched:
		return CodeNotWatched
	case dberr.ErrWidthMismatch:
		return CodeWidthMismatch
	case dberr.ErrPartialBatch:
		return CodePartialBatch
	case dberr.ErrHistoryHorizon:
		return CodeHistoryHorizon
	case dberr.ErrOverloaded:
		return CodeOverloaded
	}
	return CodeOp
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Error is a typed wire error.
type Error struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// Error returns the bare message: for CodeOp errors this is the exact
// server-side debugger error string, so REPL output matches in-process
// debugging byte for byte.
func (e *Error) Error() string { return e.Msg }

// Unwrap maps typed error codes back onto their sentinels, so
// errors.Is(err, dberr.ErrIsMemory) — or context.Canceled for
// CodeCancelled — works on a wire error exactly as it does on the
// in-process debugger error it encodes.
func (e *Error) Unwrap() error { return codeSentinel[e.Code] }

// OpFailed reports whether the error is an op's own failure, answered
// after the op ran: CodeOp or a typed debugger code refining it. A
// refusal to run the op, a cancellation and a board failure are not.
func (e *Error) OpFailed() bool {
	switch e.Code {
	case CodeOp, CodeUnknownState, CodeIsMemory, CodeIsRegister, CodeOutOfRange,
		CodeNotWatched, CodeWidthMismatch, CodePartialBatch, CodeHistoryHorizon:
		return true
	}
	return false
}

// Errf builds a typed wire error.
func Errf(code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// IsCode reports whether err is a wire *Error with the given code.
func IsCode(err error, code string) bool {
	e, ok := err.(*Error)
	return ok && e.Code == code
}
