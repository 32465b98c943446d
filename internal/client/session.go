package client

import (
	"context"
	"time"

	"zoomie/internal/dbg"
	"zoomie/internal/sim"
	"zoomie/internal/wire"
)

// Session is a remote debugging session: the network mirror of
// zoomie.Session. Every method is one wire round trip executed by the
// session's actor on the server, so concurrent callers see the same
// serialized semantics as the in-process debugger.
type Session struct {
	c *Client

	ID      uint64
	Design  string
	Device  string
	Report  string
	Watches []string
}

// Do sends one session op and returns its response: the remote twin of
// server.Local.Do, so code written against Do drives a leased board and
// an in-process one alike. On an op failure the response comes back
// alongside its *wire.Error.
func (s *Session) Do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	req.Session = s.ID
	return s.c.callCtx(ctx, req)
}

func (s *Session) call(req *wire.Request) (*wire.Response, error) {
	return s.Do(context.Background(), req)
}

// Run lets the FPGA execute freely for n design-clock ticks of wall time.
func (s *Session) Run(n int) error {
	_, err := s.call(&wire.Request{Op: wire.OpRun, N: n})
	return err
}

// Pause halts the design timing-precisely.
func (s *Session) Pause() error {
	_, err := s.call(&wire.Request{Op: wire.OpPause})
	return err
}

// Resume clears every pause source and lets the design run freely.
func (s *Session) Resume() error {
	_, err := s.call(&wire.Request{Op: wire.OpResume})
	return err
}

// Step executes exactly n MUT cycles and pauses again.
func (s *Session) Step(n int) error {
	_, err := s.call(&wire.Request{Op: wire.OpStep, N: n})
	return err
}

// RunUntilPaused runs until a trigger fires, up to maxTicks; returns the
// ticks consumed.
func (s *Session) RunUntilPaused(maxTicks int) (int, error) {
	resp, err := s.call(&wire.Request{Op: wire.OpUntil, N: maxTicks})
	if resp == nil {
		return 0, err
	}
	// A no-trigger timeout still consumed ticks; report them alongside
	// the error exactly as the in-process debugger does.
	return resp.Ran, err
}

// Peek reads a register through frame readback on the server's board.
func (s *Session) Peek(name string) (uint64, error) {
	resp, err := s.call(&wire.Request{Op: wire.OpPeek, Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// Poke forces a register value through partial reconfiguration.
func (s *Session) Poke(name string, v uint64) error {
	_, err := s.call(&wire.Request{Op: wire.OpPoke, Name: name, Value: v})
	return err
}

// PeekMem reads one memory word.
func (s *Session) PeekMem(name string, addr int) (uint64, error) {
	resp, err := s.call(&wire.Request{Op: wire.OpPeekMem, Name: name, Addr: addr})
	if err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// PokeMem forces one memory word.
func (s *Session) PokeMem(name string, addr int, v uint64) error {
	_, err := s.call(&wire.Request{Op: wire.OpPokeMem, Name: name, Addr: addr, Value: v})
	return err
}

// PeekBatch reads several state elements as one wire round trip and one
// planned readback pass on the server's board.
func (s *Session) PeekBatch(items []dbg.PlanItem) ([]uint64, error) {
	return s.PeekBatchCtx(context.Background(), items)
}

// PeekBatchCtx is PeekBatch under a context. On a partial-batch failure
// the slice still carries the values from healthy SLRs alongside the
// error.
func (s *Session) PeekBatchCtx(ctx context.Context, items []dbg.PlanItem) ([]uint64, error) {
	if len(items) == 0 {
		return nil, nil
	}
	wi := make([]wire.BatchItem, len(items))
	for i, it := range items {
		wi[i] = wire.BatchItem{Name: it.Name, Mem: it.Mem, Addr: it.Addr}
	}
	resp, err := s.Do(ctx, &wire.Request{Op: wire.OpPeekBatch, Items: wi})
	if resp == nil {
		return nil, err
	}
	vals := resp.Values
	// Pad only successful responses: a plan that failed to resolve
	// returns no values in-process (ReadPlan's contract), and a
	// partial-batch failure already carries a full-length slice.
	// Manufacturing zeros for a failed batch would diverge from the
	// local debugger's behavior.
	if err == nil && len(vals) != len(items) {
		vals = append(vals, make([]uint64, len(items)-len(vals))...)
	}
	return vals, err
}

// PokeBatch writes several state elements as one wire round trip and
// one planned read-modify-write pass per SLR on the server's board.
func (s *Session) PokeBatch(items []dbg.PlanItem) error {
	return s.PokeBatchCtx(context.Background(), items)
}

// PokeBatchCtx is PokeBatch under a context.
func (s *Session) PokeBatchCtx(ctx context.Context, items []dbg.PlanItem) error {
	if len(items) == 0 {
		return nil
	}
	wi := make([]wire.BatchItem, len(items))
	for i, it := range items {
		wi[i] = wire.BatchItem{Name: it.Name, Mem: it.Mem, Addr: it.Addr, Value: it.Value}
	}
	_, err := s.Do(ctx, &wire.Request{Op: wire.OpPokeBatch, Items: wi})
	return err
}

// SetValueBreakpoint arms a value breakpoint on a watched signal.
func (s *Session) SetValueBreakpoint(signal string, value uint64, mode dbg.BreakMode) error {
	m := "any"
	if mode == dbg.BreakAll {
		m = "all"
	}
	_, err := s.call(&wire.Request{Op: wire.OpBreak, Name: signal, Value: value, Mode: m})
	return err
}

// ClearBreakpoints disarms every value breakpoint.
func (s *Session) ClearBreakpoints() error {
	_, err := s.call(&wire.Request{Op: wire.OpClearBrk})
	return err
}

// EnableAssertion toggles an assertion breakpoint.
func (s *Session) EnableAssertion(name string, enable bool) error {
	_, err := s.call(&wire.Request{Op: wire.OpAssert, Name: name, Enable: enable})
	return err
}

// Snapshot captures full design state server-side (the data never
// crosses the wire) and returns its shape: register count, memory
// count, and the cycle it was taken at.
func (s *Session) Snapshot() (regs, mems int, cycle uint64, err error) {
	resp, err := s.call(&wire.Request{Op: wire.OpSnapSave})
	if err != nil {
		return 0, 0, 0, err
	}
	return resp.Regs, resp.Mems, resp.Cycles, nil
}

// Restore rewinds the design to the last server-side snapshot.
func (s *Session) Restore() error {
	_, err := s.call(&wire.Request{Op: wire.OpSnapRest})
	return err
}

// Inspect returns a sorted name=value listing of registers under an
// instance prefix.
func (s *Session) Inspect(prefix string) ([]string, error) {
	resp, err := s.call(&wire.Request{Op: wire.OpInspect, Prefix: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Lines, nil
}

// TraceSteps single-steps the paused design, reading the named registers
// every cycle, and reconstructs the waveform locally.
func (s *Session) TraceSteps(signals []string, steps int) (*sim.Waveform, error) {
	resp, err := s.call(&wire.Request{Op: wire.OpTrace, Signals: signals, N: steps})
	if err != nil {
		return nil, err
	}
	t := resp.Trace
	return &sim.Waveform{Signals: t.Signals, Widths: t.Widths, Rows: t.Rows}, nil
}

// PokeInput drives a top-level input port (chip IO).
func (s *Session) PokeInput(name string, v uint64) error {
	_, err := s.call(&wire.Request{Op: wire.OpInput, Name: name, Value: v})
	return err
}

// PeekOutput samples a top-level output port.
func (s *Session) PeekOutput(name string) (uint64, error) {
	resp, err := s.call(&wire.Request{Op: wire.OpOutput, Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Value, nil
}

// Status returns the paused flag, executed MUT cycles, and the modeled
// configuration-plane time spent on the server's cable.
func (s *Session) Status() (paused bool, cycles uint64, elapsed time.Duration, err error) {
	resp, err := s.call(&wire.Request{Op: wire.OpSessStat})
	if err != nil {
		return false, 0, 0, err
	}
	return resp.Paused, resp.Cycles, time.Duration(resp.ElapsedNS), nil
}

// Paused reports whether the Debug Controller holds the design.
func (s *Session) Paused() (bool, error) {
	paused, _, _, err := s.Status()
	return paused, err
}

// Cycles returns executed MUT cycles since configuration.
func (s *Session) Cycles() (uint64, error) {
	_, cycles, _, err := s.Status()
	return cycles, err
}

// Detach closes the remote session immediately, releasing its board
// back to the pool (without it, the server's idle timeout eventually
// does the same).
func (s *Session) Detach() error {
	_, err := s.call(&wire.Request{Op: wire.OpDetach})
	return err
}

// HistSeek moves the design to the recorded state at the given MUT cycle
// and returns the timeline the cursor landed on.
func (s *Session) HistSeek(cycle uint64) (int, error) {
	resp, err := s.call(&wire.Request{Op: wire.OpHistSeek, Value: cycle})
	if err != nil {
		return 0, err
	}
	return resp.Ran, nil
}

// HistRewind steps the recorded history back n cycles and returns the
// cycle landed on plus the timeline id.
func (s *Session) HistRewind(n uint64) (uint64, int, error) {
	resp, err := s.call(&wire.Request{Op: wire.OpHistRewind, N: int(n)})
	if err != nil {
		return 0, 0, err
	}
	return resp.Cycles, resp.Ran, nil
}

// HistReverseContinue searches recorded history backwards for the most
// recent cycle before the cursor at which the current trigger config
// would have paused the design, and seeks there. found reports whether
// such a cycle exists in the recorded window.
func (s *Session) HistReverseContinue() (cycle uint64, found bool, err error) {
	resp, err := s.call(&wire.Request{Op: wire.OpHistRevCont})
	if err != nil {
		return 0, false, err
	}
	return resp.Cycles, resp.Paused, nil
}

// HistSaveState captures the current state as a named savestate.
func (s *Session) HistSaveState(name string) (regs, mems int, cycle uint64, err error) {
	resp, err := s.call(&wire.Request{Op: wire.OpHistSave, Name: name})
	if err != nil {
		return 0, 0, 0, err
	}
	return resp.Regs, resp.Mems, resp.Cycles, nil
}

// HistLoadState restores a named savestate and returns the design cycle
// afterwards (the cycle counter is monotonic: loading does not rewind it).
func (s *Session) HistLoadState(name string) (uint64, error) {
	resp, err := s.call(&wire.Request{Op: wire.OpHistLoad, Name: name})
	if err != nil {
		return 0, err
	}
	return resp.Cycles, nil
}

// StateExport checkpoints the session for cross-daemon failover (v3+):
// the server's actor cuts a consistent point-in-time export — full-scope
// snapshot (breakpoints and pause state included) plus the encoded
// time-travel history — and hands it back as an opaque blob for
// Client.AttachWithState on another daemon. Also returns the design
// cycle the checkpoint captured.
func (s *Session) StateExport(ctx context.Context) ([]byte, uint64, error) {
	resp, err := s.Do(ctx, &wire.Request{Op: wire.OpStateExport})
	if err != nil {
		return nil, 0, err
	}
	return resp.Blob, resp.Cycles, nil
}

// HistoryStatusLines returns the rendered history status, line by line,
// byte-identical to the in-process debugger's rendering.
func (s *Session) HistoryStatusLines() ([]string, error) {
	resp, err := s.call(&wire.Request{Op: wire.OpHistStat})
	if err != nil {
		return nil, err
	}
	return resp.Lines, nil
}

// TimelineLines returns the rendered branch-timeline table, line by line.
func (s *Session) TimelineLines() ([]string, error) {
	resp, err := s.call(&wire.Request{Op: wire.OpHistTimelines})
	if err != nil {
		return nil, err
	}
	return resp.Lines, nil
}
