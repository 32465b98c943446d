package server

import (
	"context"
	"errors"

	"zoomie"
	"zoomie/internal/dbg"
	"zoomie/internal/farm"
	"zoomie/internal/obs"
	"zoomie/internal/wire"
)

// The op table: every session op of the debugger is defined here once,
// as a handler over a Local. The daemon's session actor, the in-process
// REPL and zcheck's facade leg all run these handlers through Local.Do;
// the remote REPL and zcheck's remote legs reach the same handlers
// through client.Session.Do and the wire. So a command behaves the same
// in-process and over -connect by construction: the legs differ only in
// codec, socket and actor.
//
// A new session op touches three places: its wire name (a wire.Op
// constant; the binary op-code table is append-only, and an op missing
// from it still travels as the string escape), its entry here, and the
// facade method the handler calls.

// op is one session op: whether it can change session state, and its
// handler. A handler fills resp and returns the facade's error unchanged;
// Local.Do classifies it.
type op struct {
	mutates bool
	run     func(ctx context.Context, l *Local, req *wire.Request, resp *wire.Response) error
}

// ops maps wire op names onto their definitions. Counts (N) reach the
// facade unchanged: a zero count means zero, in-process and over the
// wire alike.
var ops = map[string]op{
	wire.OpRun: {true, func(_ context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		l.zs.Run(req.N)
		resp.Ran = req.N
		l.ctr.advanced(req.N)
		return nil
	}},
	wire.OpPause: {true, func(_ context.Context, l *Local, _ *wire.Request, _ *wire.Response) error {
		return l.zs.Pause()
	}},
	wire.OpResume: {true, func(_ context.Context, l *Local, _ *wire.Request, _ *wire.Response) error {
		return l.zs.Resume()
	}},
	wire.OpStep: {true, func(_ context.Context, l *Local, req *wire.Request, _ *wire.Response) error {
		if err := l.zs.Step(req.N); err != nil {
			return err
		}
		l.ctr.advanced(req.N)
		return nil
	}},
	wire.OpUntil: {true, func(_ context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		ran, err := l.zs.RunUntilPaused(req.N)
		resp.Ran = ran // a no-trigger timeout still consumed ticks
		if err != nil {
			return err
		}
		l.ctr.advanced(ran)
		return nil
	}},
	wire.OpPeek: {false, func(ctx context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		v, err := l.zs.PeekCtx(ctx, req.Name)
		if err != nil {
			return err
		}
		resp.Value = v
		l.ctr.Peeks.Inc()
		return nil
	}},
	wire.OpPoke: {true, func(ctx context.Context, l *Local, req *wire.Request, _ *wire.Response) error {
		if err := l.zs.PokeCtx(ctx, req.Name, req.Value); err != nil {
			return err
		}
		l.ctr.Pokes.Inc()
		return nil
	}},
	wire.OpPeekMem: {false, func(ctx context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		v, err := l.zs.PeekMemCtx(ctx, req.Name, req.Addr)
		if err != nil {
			return err
		}
		resp.Value = v
		l.ctr.Peeks.Inc()
		return nil
	}},
	wire.OpPokeMem: {true, func(ctx context.Context, l *Local, req *wire.Request, _ *wire.Response) error {
		if err := l.zs.PokeMemCtx(ctx, req.Name, req.Addr, req.Value); err != nil {
			return err
		}
		l.ctr.Pokes.Inc()
		return nil
	}},
	wire.OpPeekBatch: {false, func(ctx context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		// One planned pass for the whole batch: one readback per SLR the
		// request set touches, however many names the client sent.
		vals, err := l.zs.ReadPlan(ctx, planItems(req.Items))
		resp.Values = vals // partial-batch results travel with the error
		if err != nil {
			return err
		}
		l.ctr.Peeks.Add(uint64(len(req.Items)))
		return nil
	}},
	wire.OpPokeBatch: {true, func(ctx context.Context, l *Local, req *wire.Request, _ *wire.Response) error {
		if err := l.zs.WritePlan(ctx, planItems(req.Items)); err != nil {
			return err
		}
		l.ctr.Pokes.Add(uint64(len(req.Items)))
		return nil
	}},
	wire.OpBreak: {true, func(_ context.Context, l *Local, req *wire.Request, _ *wire.Response) error {
		mode := zoomie.BreakAny
		if req.Mode == "all" {
			mode = zoomie.BreakAll
		}
		return l.zs.SetValueBreakpoint(req.Name, req.Value, mode)
	}},
	wire.OpClearBrk: {true, func(_ context.Context, l *Local, _ *wire.Request, _ *wire.Response) error {
		return l.zs.ClearBreakpoints()
	}},
	wire.OpAssert: {true, func(_ context.Context, l *Local, req *wire.Request, _ *wire.Response) error {
		return l.zs.EnableAssertion(req.Name, req.Enable)
	}},
	wire.OpSnapSave: {true, func(ctx context.Context, l *Local, _ *wire.Request, resp *wire.Response) error {
		snap, err := l.zs.SnapshotCtx(ctx, "dut")
		if err != nil {
			return err
		}
		l.lastSnap = snap
		resp.Regs, resp.Mems, resp.Cycles = len(snap.Regs), len(snap.Mems), snap.Cycle
		return nil
	}},
	wire.OpSnapRest: {true, func(ctx context.Context, l *Local, _ *wire.Request, _ *wire.Response) error {
		if l.lastSnap == nil {
			return errors.New("no snapshot saved")
		}
		return l.zs.RestoreCtx(ctx, l.lastSnap)
	}},
	wire.OpInspect: {false, func(_ context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		lines, err := l.zs.Inspect(req.Prefix)
		if err != nil {
			return err
		}
		resp.Lines = lines
		return nil
	}},
	wire.OpTrace: {true, func(ctx context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		tr, err := l.zs.TraceStepsCtx(ctx, req.Signals, req.N)
		if err != nil {
			return err
		}
		resp.Trace = &wire.Trace{Signals: tr.Signals, Widths: tr.Widths, Rows: tr.Rows}
		return nil
	}},
	wire.OpInput: {true, func(_ context.Context, l *Local, req *wire.Request, _ *wire.Response) error {
		if err := l.zs.PokeInput(req.Name, req.Value); err != nil {
			return err
		}
		l.ctr.Pokes.Inc()
		return nil
	}},
	wire.OpOutput: {false, func(_ context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		v, err := l.zs.PeekOutput(req.Name)
		if err != nil {
			return err
		}
		resp.Value = v
		l.ctr.Peeks.Inc()
		return nil
	}},
	wire.OpHistSeek: {true, func(_ context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		tl, err := l.zs.Seek(req.Value)
		if err != nil {
			return err
		}
		resp.Ran = tl
		resp.Cycles, _ = l.zs.Cycles()
		return nil
	}},
	wire.OpHistRewind: {true, func(_ context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		cyc, tl, err := l.zs.Rewind(uint64(req.N))
		if err != nil {
			return err
		}
		resp.Cycles, resp.Ran = cyc, tl
		return nil
	}},
	wire.OpHistRevCont: {true, func(_ context.Context, l *Local, _ *wire.Request, resp *wire.Response) error {
		cyc, found, err := l.zs.ReverseContinue()
		if err != nil {
			return err
		}
		resp.Cycles, resp.Paused = cyc, found
		return nil
	}},
	wire.OpHistSave: {true, func(_ context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		regs, mems, cyc, err := l.zs.SaveState(req.Name)
		if err != nil {
			return err
		}
		resp.Regs, resp.Mems, resp.Cycles = regs, mems, cyc
		return nil
	}},
	wire.OpHistLoad: {true, func(_ context.Context, l *Local, req *wire.Request, resp *wire.Response) error {
		cyc, err := l.zs.LoadState(req.Name)
		if err != nil {
			return err
		}
		resp.Cycles = cyc
		return nil
	}},
	wire.OpHistStat: {false, func(_ context.Context, l *Local, _ *wire.Request, resp *wire.Response) error {
		resp.Lines = l.zs.HistoryStatusLines()
		return nil
	}},
	wire.OpHistTimelines: {false, func(_ context.Context, l *Local, _ *wire.Request, resp *wire.Response) error {
		resp.Lines = l.zs.TimelineLines()
		return nil
	}},
	wire.OpStateExport: {false, func(ctx context.Context, l *Local, _ *wire.Request, resp *wire.Response) error {
		// Checkpoint: the full-scope snapshot (Debug Controller registers
		// included, so breakpoints and pause state travel) plus the
		// encoded history engine, in one blob. The snapshot is the
		// refreshed known-good one, so a checkpoint re-reads only what
		// changed since the previous one.
		if err := l.refreshGood(ctx); err != nil {
			return err
		}
		blob, err := encodeExport(l.lastGood, l.zs.EncodeHistory())
		if err != nil {
			return err
		}
		resp.Blob, resp.Cycles = blob, l.lastGood.Cycle
		return nil
	}},
	wire.OpSessStat: {false, func(_ context.Context, l *Local, _ *wire.Request, resp *wire.Response) error {
		paused, err := l.zs.Paused()
		if err != nil {
			return err
		}
		cycles, err := l.zs.Cycles()
		if err != nil {
			return err
		}
		resp.Paused, resp.Cycles, resp.ElapsedNS = paused, cycles, l.zs.Elapsed().Nanoseconds()
		return nil
	}},
}

// Mutating reports whether an op can change session state: zfleet
// journals these for deterministic re-execution after a failover, and a
// daemon refreshes its known-good snapshot after them. Ops outside the
// table, unknown names included, count as mutating.
func Mutating(op string) bool {
	o, ok := ops[op]
	return !ok || o.mutates
}

// Local is one debugged design with the session state the op table
// works on: the facade session, its "snapshot save" slot and its
// known-good snapshot. The daemon's session actor embeds one; the
// in-process REPL and zcheck's facade leg wrap their facade session in
// one, so every leg runs the same handlers. A Local serves the compile
// ops too, against an in-process farm it creates on first use, holding
// its job references as a daemon connection does.
type Local struct {
	zs       *zoomie.Session
	lastSnap *zoomie.DebugSnapshot // the "snapshot save" slot
	lastGood *zoomie.DebugSnapshot // known-good full-scope snapshot: migration source, export base
	ctr      *counters

	farm *farm.Farm // nil until the first compile op
	jobs jobRefs
}

// NewLocal wraps an in-process facade session. Its op counters live in a
// private registry.
func NewLocal(zs *zoomie.Session) *Local {
	return &Local{zs: zs, ctr: newCounters(obs.NewRegistry())}
}

// Session returns the wrapped facade session.
func (l *Local) Session() *zoomie.Session { return l.zs }

// Close releases the compile-farm references the Local still holds, as a
// dying daemon connection does, and closes the wrapped facade session.
func (l *Local) Close() error {
	if l.farm != nil {
		l.jobs.release(l.farm)
	}
	return l.zs.Close()
}

// Do runs one op: the in-process twin of client.Session.Do. Session ops
// run from the table; their failures come back both in the response and
// as the returned *wire.Error, classified once: cancelled when ctx is
// done (or the facade reports a cancellation), board failed when the
// transport could not recover, otherwise the error's typed code. The
// message is the facade's error text verbatim. The compile ops run the
// daemon's compile handler against the Local's own farm.
func (l *Local) Do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	switch req.Op {
	case wire.OpCompileSubmit, wire.OpCompileStatus, wire.OpCompileCancel:
		if l.farm == nil {
			l.farm = farm.New(farm.Config{})
		}
		resp := handleCompile(ctx, l.farm, &l.jobs, nil, req)
		if resp.Err != nil {
			return resp, resp.Err
		}
		return resp, nil
	}
	resp := &wire.Response{ID: req.ID, Session: req.Session}
	o, ok := ops[req.Op]
	if !ok {
		resp.Err = wire.Errf(wire.CodeUnknownOp, "unknown op %q", req.Op)
		return resp, resp.Err
	}
	if err := o.run(ctx, l, req, resp); err != nil {
		resp.Err = classify(ctx, err)
		return resp, resp.Err
	}
	return resp, nil
}

// classify turns a facade error into its wire error. A cancelled issuing
// connection reports CodeCancelled, never a board failure, so it cannot
// trigger a spurious migration.
func classify(ctx context.Context, err error) *wire.Error {
	switch {
	case ctx.Err() != nil || wire.CodeFor(err) == wire.CodeCancelled:
		return wire.Errf(wire.CodeCancelled, "%s", err)
	case isBoardFailure(err):
		return wire.Errf(wire.CodeBoardFailed, "%s", err)
	}
	return wire.Errf(wire.CodeFor(err), "%s", err)
}

// refreshGood brings the known-good snapshot — the full design state,
// user design and Debug Controller registers alike — up to date with the
// board, re-reading only the frames whose state changed since it was
// last taken. It is the migration source and the base of every state
// export.
func (l *Local) refreshGood(ctx context.Context) error {
	snap, err := l.zs.RefreshSnapshot(ctx, l.lastGood)
	if err != nil {
		return err
	}
	l.lastGood = snap
	return nil
}

// planItems converts wire batch items to debugger plan items.
func planItems(items []wire.BatchItem) []dbg.PlanItem {
	out := make([]dbg.PlanItem, len(items))
	for i, it := range items {
		out[i] = dbg.PlanItem{Name: it.Name, Mem: it.Mem, Addr: it.Addr, Value: it.Value}
	}
	return out
}
