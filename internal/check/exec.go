package check

import (
	"context"
	"fmt"
	"strings"

	"zoomie/internal/dberr"
	"zoomie/internal/gen"
	"zoomie/internal/wire"
)

// Result is everything the executor observed running one script on one
// target, normalized into comparable text records: one record per op
// (values for reads, shapes for snapshots, error class for failures),
// one probe record after every op (a planned batch over a fixed state
// sample), synthesized pause-transition events, and a final full state
// map. Two targets agree iff their Records are element-wise equal.
type Result struct {
	Records []string
}

// errClass renders an error as a comparable record fragment. Typed
// debugger errors compare by sentinel identity (errors.Is through the
// wire mapping); everything else compares by exact message, which the
// wire protocol preserves byte-for-byte.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	if s := dberr.Sentinel(err); s != nil {
		return "E<" + s.Error() + ">"
	}
	return "E<" + err.Error() + ">"
}

// executor runs one script against one target.
type executor struct {
	t          Target
	design     string // the catalog name compile checks build from
	probes     []wire.BatchItem
	records    []string
	lastPaused bool
}

func (e *executor) rec(format string, args ...any) {
	e.records = append(e.records, fmt.Sprintf(format, args...))
}

// do runs one session op on the target. A response lost with its
// connection reads as the zero response, so records of a failed op
// carry zero values on every stack.
func (e *executor) do(req *wire.Request) (*wire.Response, error) {
	resp, err := e.t.Do(context.Background(), req)
	if resp == nil {
		resp = &wire.Response{}
	}
	return resp, err
}

// peekBatch reads a plan as one batched op.
func (e *executor) peekBatch(items []wire.BatchItem) ([]uint64, error) {
	resp, err := e.do(&wire.Request{Op: wire.OpPeekBatch, Items: items})
	return resp.Values, err
}

// status reads the paused flag and the cycle count in one op.
func (e *executor) status() (*wire.Response, error) {
	return e.do(&wire.Request{Op: wire.OpSessStat})
}

// probe samples a fixed set of state through the planned batch path
// after every op, so a single-op state corruption is caught at the op
// that introduced it rather than at the end of the script.
func (e *executor) probe() {
	if len(e.probes) == 0 {
		return
	}
	vals, err := e.peekBatch(e.probes)
	if err != nil {
		e.rec("  probe %s", errClass(err))
		return
	}
	var b strings.Builder
	for i, v := range vals {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%#x", v)
	}
	e.rec("  probe [%s]", b.String())
}

// syncPaused mirrors the server's running->paused transition tracking
// (session.maybeEmitPaused): after clock-advancing ops it samples the
// paused flag and records a "paused" event on a fresh transition — the
// event-equivalence half of the oracle. An explicit pause op updates
// the tracked state without recording, exactly as the server suppresses
// its own acknowledgement.
func (e *executor) syncPaused(op string) {
	switch op {
	case gen.OpRun, gen.OpUntil, gen.OpStep, gen.OpResume, gen.OpPause, gen.OpWatch,
		gen.OpSeek, gen.OpRewind:
	default:
		return
	}
	st, err := e.status()
	if err != nil {
		e.rec("  event %s", errClass(err))
		return
	}
	was := e.lastPaused
	e.lastPaused = st.Paused
	// A successful seek/rewind always lands paused — that transition is
	// the op's own doing, mirroring how an explicit pause is suppressed.
	if st.Paused && !was && op != gen.OpPause && op != gen.OpSeek && op != gen.OpRewind {
		e.rec("  event paused op=%s cycles=%d", op, st.Cycles)
	}
}

// RunScript executes a script against a target debugging the catalog
// design and returns the normalized observation log. The probes plan is
// sampled after every op. Every outcome — including errors — is recorded
// rather than returned: a failing op is part of the behavior under test,
// not a failure of the harness. The target is left attached; callers own
// Close.
func RunScript(t Target, design string, ops []gen.Op, probes []wire.BatchItem) *Result {
	e := &executor{t: t, design: design, probes: probes}
	if st, err := e.status(); err == nil {
		e.lastPaused = st.Paused
	}
	for i, op := range ops {
		e.step(i, op)
		e.syncPaused(op.Kind)
		e.probe()
	}
	e.finalState()
	return &Result{Records: e.records}
}

// step runs one script op as one op on the target (watch aside) and
// records its outcome.
func (e *executor) step(i int, op gen.Op) {
	var req *wire.Request
	switch op.Kind {
	case gen.OpPeek:
		req = &wire.Request{Op: wire.OpPeek, Name: op.Name}
	case gen.OpPoke:
		req = &wire.Request{Op: wire.OpPoke, Name: op.Name, Value: op.Value}
	case gen.OpPeekMem:
		req = &wire.Request{Op: wire.OpPeekMem, Name: op.Name, Addr: op.Addr}
	case gen.OpPokeMem:
		req = &wire.Request{Op: wire.OpPokeMem, Name: op.Name, Addr: op.Addr, Value: op.Value}
	case gen.OpPeekBatch:
		req = &wire.Request{Op: wire.OpPeekBatch, Items: batchItems(op.Items)}
	case gen.OpPokeBatch:
		req = &wire.Request{Op: wire.OpPokeBatch, Items: batchItems(op.Items)}
	case gen.OpStep:
		req = &wire.Request{Op: wire.OpStep, N: op.N}
	case gen.OpRun:
		req = &wire.Request{Op: wire.OpRun, N: op.N}
	case gen.OpUntil:
		req = &wire.Request{Op: wire.OpUntil, N: op.N}
	case gen.OpPause:
		req = &wire.Request{Op: wire.OpPause}
	case gen.OpResume:
		req = &wire.Request{Op: wire.OpResume}
	case gen.OpBreak:
		req = &wire.Request{Op: wire.OpBreak, Name: op.Name, Value: op.Value, Mode: op.Mode}
	case gen.OpClearBrk:
		req = &wire.Request{Op: wire.OpClearBrk}
	case gen.OpAssert:
		req = &wire.Request{Op: wire.OpAssert, Name: op.Name, Enable: op.Enable}
	case gen.OpSnapshot:
		req = &wire.Request{Op: wire.OpSnapSave}
	case gen.OpRestore:
		req = &wire.Request{Op: wire.OpSnapRest}
	case gen.OpInput:
		req = &wire.Request{Op: wire.OpInput, Name: op.Name, Value: op.Value}
	case gen.OpOutput:
		req = &wire.Request{Op: wire.OpOutput, Name: op.Name}
	case gen.OpInspect:
		req = &wire.Request{Op: wire.OpInspect, Prefix: op.Name}
	case gen.OpSeek:
		req = &wire.Request{Op: wire.OpHistSeek, Value: op.Value}
	case gen.OpRewind:
		req = &wire.Request{Op: wire.OpHistRewind, N: op.N}
	case gen.OpWatch:
		e.watch(i, op)
		return
	case gen.OpCompile:
		// The compile farm's bit-identity oracle: the tag-th canonical
		// debug edit compiled warm (shared-cache incremental) and cold
		// (monolithic), both bitstream digests returned. The digests are
		// content-derived, so every stack must agree on both.
		req = &wire.Request{Op: wire.OpCompileSubmit, Design: e.design, Mode: "check", N: op.N}
	default:
		e.rec("%03d %s -> skipped (unknown op)", i, op)
		return
	}
	r, err := e.do(req)
	switch op.Kind {
	case gen.OpPeek, gen.OpPeekMem, gen.OpOutput:
		e.rec("%03d %s -> %#x %s", i, op, r.Value, errClass(err))
	case gen.OpPeekBatch:
		var b strings.Builder
		for j, v := range r.Values {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%#x", v)
		}
		e.rec("%03d %s -> [%s] %s", i, op, b.String(), errClass(err))
	case gen.OpUntil:
		e.rec("%03d %s -> ran=%d %s", i, op, r.Ran, errClass(err))
	case gen.OpSnapshot:
		e.rec("%03d %s -> regs=%d mems=%d cycle=%d %s", i, op, r.Regs, r.Mems, r.Cycles, errClass(err))
	case gen.OpInspect:
		e.rec("%03d %s -> %d lines %s", i, op, len(r.Lines), errClass(err))
	case gen.OpSeek:
		e.rec("%03d %s -> tl=%d %s", i, op, r.Ran, errClass(err))
	case gen.OpRewind:
		e.rec("%03d %s -> cycle=%d tl=%d %s", i, op, r.Cycles, r.Ran, errClass(err))
	case gen.OpCompile:
		var cold, warm string
		if len(r.Lines) == 2 {
			cold, warm = r.Lines[0], r.Lines[1]
		}
		e.rec("%03d %s -> cold=%s warm=%s match=%v %s",
			i, op, cold, warm, cold != "" && cold == warm, errClass(err))
	default:
		e.rec("%03d %s -> %s", i, op, errClass(err))
	}
}

// watch implements a software watchpoint generically — single-step and
// re-peek until the register changes or the budget runs out — so all
// three targets execute the identical sequence of primitive ops.
func (e *executor) watch(i int, op gen.Op) {
	peek := &wire.Request{Op: wire.OpPeek, Name: op.Name}
	first, err := e.do(peek)
	if err != nil {
		e.rec("%03d %s -> %s", i, op, errClass(err))
		return
	}
	before := first.Value
	for s := 0; s < op.N; s++ {
		if _, err := e.do(&wire.Request{Op: wire.OpStep, N: 1}); err != nil {
			e.rec("%03d %s -> step %d %s", i, op, s, errClass(err))
			return
		}
		r, err := e.do(peek)
		if err != nil {
			e.rec("%03d %s -> step %d %s", i, op, s, errClass(err))
			return
		}
		if r.Value != before {
			e.rec("%03d %s -> changed %#x->%#x after %d steps ok", i, op, before, r.Value, s+1)
			return
		}
	}
	e.rec("%03d %s -> unchanged %#x after %d steps ok", i, op, before, op.N)
}

// finalState appends the full state map: every register and memory word
// under the user design, values included. This is the end-of-script
// state-equivalence assertion.
func (e *executor) finalState() {
	st, err := e.status()
	e.rec("final cycles=%d %s", st.Cycles, errClass(err))
	r, err := e.do(&wire.Request{Op: wire.OpInspect, Prefix: "dut"})
	if err != nil {
		e.rec("final inspect %s", errClass(err))
		return
	}
	for _, ln := range r.Lines {
		e.rec("final %s", ln)
	}
}

// batchItems converts script batch items to their wire form.
func batchItems(items []gen.Item) []wire.BatchItem {
	out := make([]wire.BatchItem, len(items))
	for i, it := range items {
		out[i] = wire.BatchItem{Name: it.Name, Mem: it.Mem, Addr: it.Addr, Value: it.Value}
	}
	return out
}

// ProbePlan builds the fixed per-op probe set for a generated design: up
// to four registers and two memory words, read as one planned batch.
func ProbePlan(d *gen.Design) []wire.BatchItem {
	var items []wire.BatchItem
	for i, rp := range d.Regs {
		if i >= 4 {
			break
		}
		items = append(items, wire.BatchItem{Name: rp.Name})
	}
	for i, m := range d.Mems {
		if i >= 2 {
			break
		}
		items = append(items, wire.BatchItem{Name: m.Name, Mem: true, Addr: i % m.Depth})
	}
	return items
}
