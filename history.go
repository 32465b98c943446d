package zoomie

// Time-travel debugging: the Session surface over the omniscient
// record/replay engine in internal/history. While the design runs, the
// simulator's commit path streams committed register/memory deltas into
// a compressed ring of keyframed segments; any recorded cycle can then
// be reconstructed host-side and written back through the Debug
// Controller's configuration frames — rewind, seek, reverse-continue and
// branch timelines on real (modeled) hardware, with recording cost
// proportional to design activity.
//
// Every history restore goes through Debugger.RestoreVec, the restore
// core explicit checkpoints share (SLR-aware frame plans, guarded-cable
// semantic verification). It selects only the frames holding a value
// that differs from the board, as the engine's live mirror reports it,
// so a seek pays for what changed rather than for the size of the
// design, and it builds those frames on the host instead of reading them
// back. The engine hands out recorded states as vectors indexed like the
// image's state map, resolved once per attached engine, so a seek,
// rewind or load moves state to frames by index and looks no name up.
// Snapshots read the same way: RefreshSnapshot re-reads only the frames
// whose state changed since a base snapshot.

import (
	"context"
	"fmt"
	"strings"

	"zoomie/internal/core"
	"zoomie/internal/dberr"
	"zoomie/internal/dbg"
	"zoomie/internal/history"
)

// HistoryConfig tunes (or disables) the time-travel history engine a
// Session records into. The zero value — and a nil DebugConfig.History —
// means recording on with defaults.
type HistoryConfig struct {
	// Disable turns recording off entirely; Seek/Rewind and friends
	// then fail with "history recording is disabled".
	Disable bool
	// KeyframeEvery is the tick distance between full keyframes
	// (default 64) — the seek-latency vs memory trade-off (DESIGN.md §5).
	KeyframeEvery int
	// MaxKeyframes bounds retained segments across all timelines
	// (default 64); older segments are evicted and seeks before the
	// horizon fail with ErrHistoryHorizon.
	MaxKeyframes int
	// MaxTimelines bounds retained branch timelines (default 8).
	MaxTimelines int
}

// ErrHistoryHorizon: a seek/rewind targeted a cycle outside recorded
// history (evicted, ahead of the present, or in a fork gap). Like the
// other sentinels it survives the wire: errors.Is matches against a
// remote session too.
var ErrHistoryHorizon = dberr.ErrHistoryHorizon

var errHistoryDisabled = fmt.Errorf("zoomie: history recording is disabled")

// attachHistory creates and attaches the engine per config; called by
// Debug after Start so configuration writes don't record.
func (s *Session) attachHistory(cfg *HistoryConfig) error {
	if cfg != nil && cfg.Disable {
		return nil
	}
	var hc history.Config
	if cfg != nil {
		hc.KeyframeEvery = cfg.KeyframeEvery
		hc.MaxKeyframes = cfg.MaxKeyframes
		hc.MaxTimelines = cfg.MaxTimelines
	}
	eng := history.New(hc)
	eng.Attach(s.Cable.Board.Sim, s.Meta.Reg(core.RegCycles))
	if err := s.bindHistory(eng); err != nil {
		eng.Detach()
		return err
	}
	s.hist = eng
	return nil
}

// histLayout is what a history restore folds into a recorded state, by
// position in the image's state map.
type histLayout struct {
	// trig names the trigger overlay registers and, last, the paused
	// flag: what holdForRestore reads. overlay holds the overlay's
	// positions, in the same order.
	trig    []string
	overlay []int
	// The pause controls a restore sets.
	pauseReq, stepArm, paused int
	// design holds every register but the Debug Controller's: what a
	// loadstate restores.
	design []bool
}

// bindHistory resolves an attached or transplanted engine's state
// vectors against this session's state map, and the session's restore
// layout with them: the one place time travel looks names up.
func (s *Session) bindHistory(h *history.Engine) error {
	sm := s.Image.Map
	regs := make([]string, len(sm.Regs))
	for i, r := range sm.Regs {
		regs[i] = r.Name
	}
	mems := make([]string, len(sm.Mems))
	for j, m := range sm.Mems {
		mems[j] = m.Name
	}
	if err := h.Resolve(regs, mems); err != nil {
		return err
	}
	var overlay []string
	for i := range s.Meta.Watches {
		overlay = append(overlay, core.RegRefVal(i), core.RegAndMask(i), core.RegOrMask(i))
	}
	for i := range s.Meta.Asserts {
		overlay = append(overlay, core.RegAssertEn(i))
	}
	overlay = append(overlay, core.RegAndSel, core.RegOrSel)
	hl := &histLayout{design: make([]bool, len(sm.Regs))}
	var at []int
	for _, r := range append(overlay, core.RegPaused, core.RegPauseReq, core.RegStepArm) {
		i, ok := sm.RegIndex(s.Meta.Reg(r))
		if !ok {
			return fmt.Errorf("zoomie: controller register %q not in the image", s.Meta.Reg(r))
		}
		hl.trig, at = append(hl.trig, s.Meta.Reg(r)), append(at, i)
	}
	n := len(overlay)
	hl.trig, hl.overlay = hl.trig[:n+1], at[:n]
	hl.paused, hl.pauseReq, hl.stepArm = at[n], at[n+1], at[n+2]
	ctl := core.Prefix + "."
	for i, r := range sm.Regs {
		hl.design[i] = !strings.HasPrefix(r.Name, ctl)
	}
	s.hl = hl
	return nil
}

// HistoryEnabled reports whether this session records history.
func (s *Session) HistoryEnabled() bool { return s.hist != nil }

// DetachHistory stops recording and hands the engine — with its full
// recorded past, timelines and savestates — to the caller for
// transplant onto a replacement session. The session keeps working with
// history disabled afterwards. Returns nil when history was off.
func (s *Session) DetachHistory() *history.Engine {
	h := s.hist
	if h != nil {
		h.Detach()
		s.hist = nil
	}
	return h
}

// AdoptHistory transplants a detached history engine onto this
// session's board, replacing any engine of its own. This is the
// board-migration hook: the server calls it on the replacement session
// before restoring the last-good snapshot, so the engine's live mirror
// tracks the restore and the debugging history survives the hardware
// swap. The adopted engine serves the recorded past but records nothing
// new: a zfleet checkpoint ships the whole ring in one wire frame, and a
// ring that kept growing after every failover would outgrow the frame
// limit (ROADMAP item 4). The designs must have identical state layouts
// (the deterministic recompile of the same design guarantees this).
func (s *Session) AdoptHistory(h *history.Engine) error {
	if h == nil {
		return nil
	}
	if err := h.Transplant(s.Cable.Board.Sim); err != nil {
		return err
	}
	if err := s.bindHistory(h); err != nil {
		h.Detach()
		return err
	}
	if s.hist != nil {
		s.hist.Detach()
	}
	h.Suspend(true)
	s.hist = h
	return nil
}

// EncodeHistory serializes the live history engine — recorded past,
// branch timelines and savestates — into a self-contained blob without
// detaching it; recording continues. This is the checkpoint half of
// cross-daemon session failover: the blob travels with the last-good
// snapshot, and history.Decode + AdoptHistory on another daemon's
// session rebuilds the full time-travel state there. Returns nil when
// history is disabled.
func (s *Session) EncodeHistory() []byte {
	if s.hist == nil {
		return nil
	}
	return s.hist.Encode()
}

// pauseIfRunning pauses the design unless it already is.
func (s *Session) pauseIfRunning() error {
	paused, err := s.Paused()
	if err != nil {
		return err
	}
	if !paused {
		return s.Pause()
	}
	return nil
}

// holdForRestore reads the paused flag and the trigger overlay in one
// planned readback — they share the Debug Controller's frame — and
// pauses the design if it was running. The overlay is the live debug
// configuration carried across a history restore: a seek rewinds the
// design under test, not the debugging session, so armed breakpoints and
// assertion enables keep their current values while everything else
// goes back in time. The overlay registers are written by the host only,
// so values read before the pause still hold after it. Pausing ticks the
// board, so this comes before the cursor is read or a live diff is
// taken. It returns the overlay's values in histLayout.overlay order.
func (s *Session) holdForRestore() ([]uint64, error) {
	vals, err := s.PeekBatch(s.hl.trig)
	if err != nil {
		return nil, err
	}
	n := len(vals) - 1
	if vals[n] == 0 {
		if err := s.Pause(); err != nil {
			return nil, err
		}
	}
	return vals[:n], nil
}

// RefreshSnapshot returns a full-scope snapshot of the board, equal to a
// fresh Snapshot(""), that re-reads only the frames holding a value that
// differs from base as the live mirror reports it: the read-side twin of
// RestoreSnapshot. A refresh with nothing changed issues no cable
// operation. A nil or scoped base, or a session with history off, takes a
// full read.
func (s *Session) RefreshSnapshot(ctx context.Context, base *DebugSnapshot) (*DebugSnapshot, error) {
	if base == nil || base.Scope != "" || s.hist == nil {
		return s.SnapshotCtx(ctx, "")
	}
	// State base lacks or holds under a foreign name is absent from the
	// vector; SnapshotFrames reads it whatever the diff selects.
	v, _, _ := s.Resolve(base, false)
	return s.SnapshotFrames(ctx, base, s.liveFrames(v))
}

// RestoreSnapshot writes a snapshot onto the board through only the
// frames holding a value that differs from the live state, as the
// history engine's mirror reports it: the write-side twin of
// RefreshSnapshot. Those frames are known to differ, so RestoreVec
// builds every one the snapshot covers on the host and reads none of
// them back; a full-scope snapshot covers them all. A scoped snapshot,
// or a session with history off, takes a full Restore, which reads every
// frame the snapshot touches.
func (s *Session) RestoreSnapshot(ctx context.Context, snap *DebugSnapshot) error {
	if snap.Scope != "" || s.hist == nil {
		return s.RestoreCtx(ctx, snap)
	}
	v, _, err := s.Resolve(snap, true)
	if err != nil {
		return err
	}
	return s.RestoreVec(ctx, v, s.liveFrames(v))
}

// liveFrames returns the frames holding a value of v that differs from
// the live state, as the history engine's mirror reports it.
func (s *Session) liveFrames(v *dbg.Vec) map[int][]int {
	regs, words := s.hist.LiveDiff(v.Regs, v.Held, v.Mems)
	return s.Image.Map.FramesHolding(regs, words)
}

// applyHistState writes a recorded state onto the held design in one
// delta restore. The trigger overlay and the pause controls are folded
// into the state's registers, by position: pause_req and step_arm clear,
// and paused set when the design should hold (a seek) or clear when it
// should free-run (a reverse-continue probe). So the restore writes the
// controller's frame at most once, with no readback first.
func (s *Session) applyHistState(st *history.Vec, trig []uint64, leavePaused bool) error {
	for k, i := range s.hl.overlay {
		st.Regs[i] = trig[k]
	}
	st.Regs[s.hl.pauseReq], st.Regs[s.hl.stepArm], st.Regs[s.hl.paused] = 0, 0, 0
	if leavePaused {
		st.Regs[s.hl.paused] = 1
	}
	return s.restoreHist(st, nil)
}

// restoreHist writes a recorded state's registers selected by held (nil:
// all of them) and its memories onto the board through only the frames
// holding a value that differs from the live state, then drives its
// input ports. The design must already be paused: pausing ticks the
// board, which would overtake the diff.
func (s *Session) restoreHist(st *history.Vec, held []bool) error {
	v := &dbg.Vec{Regs: st.Regs, Held: held, Mems: st.Mems}
	if err := s.RestoreVec(context.Background(), v, s.liveFrames(v)); err != nil {
		return err
	}
	sim := s.Cable.Board.Sim
	for k := range st.Inputs {
		sim.WriteState(st.Inputs[k:k+1], nil)
	}
	return nil
}

// seekPos moves the held design to a recorded history position:
// reconstruct, restore with recording suspended, leave paused, move the
// cursor. The caller has read the trigger overlay and paused the design
// (holdForRestore).
func (s *Session) seekPos(pos uint64, trig []uint64) error {
	st, err := s.hist.StateAt(pos)
	if err != nil {
		return err
	}
	s.hist.Suspend(true)
	defer s.hist.Suspend(false)
	if err := s.applyHistState(st, trig, true); err != nil {
		return err
	}
	s.hist.SeekDone(pos)
	return nil
}

// seekCycle moves the held design to a recorded cycle and returns the
// timeline the cursor lands on.
func (s *Session) seekCycle(cycle uint64, trig []uint64) (int, error) {
	pos, err := s.hist.PosForCycle(cycle)
	if err != nil {
		return 0, err
	}
	if err := s.seekPos(pos, trig); err != nil {
		return 0, err
	}
	return s.hist.Stat().TimelineID, nil
}

// Seek moves the design to a recorded cycle, bit-identical to a fresh
// run paused there (modulo the debug configuration, which deliberately
// keeps its current values). The design is left paused and the history
// cursor detached; resuming or poking from here forks a branch
// timeline. Returns the timeline the cursor lands on. On a paused design
// a seek costs one readback of the controller's frame and one writeback
// of the frames whose state changes.
func (s *Session) Seek(cycle uint64) (int, error) {
	if s.hist == nil {
		return 0, errHistoryDisabled
	}
	trig, err := s.holdForRestore()
	if err != nil {
		return 0, err
	}
	return s.seekCycle(cycle, trig)
}

// Rewind seeks n cycles back from the cursor. Returns the cycle landed
// on and its timeline.
func (s *Session) Rewind(n uint64) (uint64, int, error) {
	if s.hist == nil {
		return 0, 0, errHistoryDisabled
	}
	trig, err := s.holdForRestore()
	if err != nil {
		return 0, 0, err
	}
	_, cur := s.hist.Cursor()
	if n > cur {
		return 0, 0, dberr.E(dberr.ErrHistoryHorizon,
			"history: cannot rewind %d cycles from cycle %d", n, cur)
	}
	tl, err := s.seekCycle(cur-n, trig)
	if err != nil {
		return 0, 0, err
	}
	return cur - n, tl, nil
}

// ReverseContinue runs the design backwards to the most recent cycle
// before the cursor where the currently armed triggers would have
// paused a forward run. It probes history ranges newest-first: restore
// a recorded boundary, free-run forward with the real trigger hardware
// armed, and note where it pauses — so the answer is exactly the cycle
// a forward run would report, decided by the same trigger network.
// Returns (cycle, true) on a hit, (0, false) if no earlier trigger is
// in recorded history; either way the design ends paused (at the hit,
// or back at the pre-call cursor).
func (s *Session) ReverseContinue() (uint64, bool, error) {
	if s.hist == nil {
		return 0, false, errHistoryDisabled
	}
	trig, err := s.holdForRestore()
	if err != nil {
		return 0, false, err
	}
	cursorPos, cursorCycle := s.hist.Cursor()
	bounds := s.hist.ProbeBoundaries(cursorPos)

	s.hist.Suspend(true)
	answer, found, perr := s.probeRanges(bounds, cursorCycle, trig)
	s.hist.Suspend(false)
	// The probes may leave the design running; a seek back holds it first.
	seekBack := func() error {
		if err := s.pauseIfRunning(); err != nil {
			return err
		}
		return s.seekPos(cursorPos, trig)
	}
	if perr != nil {
		// Best-effort: put the design back where it was.
		_ = seekBack()
		return 0, false, perr
	}
	if found {
		if _, err := s.Seek(answer); err != nil {
			return 0, false, err
		}
		return answer, true, nil
	}
	if err := seekBack(); err != nil {
		return 0, false, err
	}
	return 0, false, nil
}

// probeRanges free-runs each boundary-delimited history range (probe
// ranges never span a host write, so a free-run from the boundary is an
// exact replay) and returns the last trigger-pause cycle in the newest
// range that has one. Recording must be suspended by the caller; the
// live design state is trashed and must be re-seeked afterwards.
func (s *Session) probeRanges(bounds []history.Boundary, cursorCycle uint64, trig []uint64) (uint64, bool, error) {
	if cursorCycle == 0 {
		return 0, false, nil
	}
	statNames := []string{s.Meta.Reg(core.RegPaused), s.Meta.Reg(core.RegCycles)}
	ran := false
	for i := len(bounds) - 1; i >= 0; i-- {
		// hitCap: the largest cycle a hit in this range may carry. A
		// trigger pause at exactly the next boundary's cycle belongs to
		// this range (the design paused here, then host writes landed),
		// so inner ranges are cycle-inclusive; the answer must always
		// be strictly before the cursor.
		hitCap := cursorCycle - 1
		if i+1 < len(bounds) && bounds[i+1].Cycle < hitCap {
			hitCap = bounds[i+1].Cycle
		}
		if hitCap <= bounds[i].Cycle {
			continue
		}
		st, err := s.hist.StateAt(bounds[i].Pos)
		if err != nil {
			return 0, false, err
		}
		// The first probe starts on the held design; a later one may
		// follow a probe that left it running.
		if ran {
			if err := s.pauseIfRunning(); err != nil {
				return 0, false, err
			}
		}
		if err := s.applyHistState(st, trig, false); err != nil {
			return 0, false, err
		}
		ran = true
		var hits []uint64
		const chunk = 16
		// Each iteration either advances the MUT or consumes one pause,
		// so the range bounds the loop.
		for iter := uint64(0); iter <= hitCap-bounds[i].Cycle+4; iter++ {
			s.Run(chunk)
			vals, err := s.PeekBatch(statNames)
			if err != nil {
				return 0, false, err
			}
			paused, cyc := vals[0] != 0, vals[1]
			if paused && cyc <= hitCap {
				hits = append(hits, cyc)
				if err := s.Resume(); err != nil {
					return 0, false, err
				}
				continue
			}
			if cyc > hitCap {
				break
			}
		}
		if len(hits) > 0 {
			return hits[len(hits)-1], true, nil
		}
	}
	return 0, false, nil
}

// SaveState captures a named savestate of the cursor's full design
// state. Savestates live host-side: they survive ring eviction,
// timeline GC and board migration. Returns the register count, memory
// count and cycle captured.
func (s *Session) SaveState(name string) (regs, mems int, cycle uint64, err error) {
	if s.hist == nil {
		return 0, 0, 0, errHistoryDisabled
	}
	st, err := s.hist.SaveNamed(name)
	if err != nil {
		return 0, 0, 0, err
	}
	return len(st.Regs), len(st.Mems), st.Cycle, nil
}

// LoadState restores a named savestate — except the Debug Controller's
// own registers, so the cycle counter stays monotonic and the armed
// debug configuration survives. The restore happens with recording ON:
// it lands in history as host writes, so a load is itself a replayable
// (and reversible) event. Returns the design cycle after the load: the
// paused flag and the cycle counter come back in one batch before it,
// and the load leaves the counter alone, so on a paused design a load
// costs that one readback of the controller's frame plus one writeback
// of the frames whose state changes.
func (s *Session) LoadState(name string) (uint64, error) {
	if s.hist == nil {
		return 0, errHistoryDisabled
	}
	st, ok := s.hist.Named(name)
	if !ok {
		return 0, fmt.Errorf("zoomie: no savestate %q", name)
	}
	vals, err := s.PeekBatch([]string{s.Meta.Reg(core.RegPaused), s.Meta.Reg(core.RegCycles)})
	if err != nil {
		return 0, err
	}
	cycle := vals[1]
	if vals[0] == 0 {
		if err := s.Pause(); err != nil {
			return 0, err
		}
		if cycle, err = s.Cycles(); err != nil {
			return 0, err
		}
	}
	if err := s.restoreHist(st, s.hl.design); err != nil {
		return 0, err
	}
	return cycle, nil
}

// HistoryStatusLines renders the engine status for the REPL — shared by
// the local and remote paths so their output is byte-identical.
func (s *Session) HistoryStatusLines() []string {
	if s.hist == nil {
		return []string{"history: disabled"}
	}
	st := s.hist.Stat()
	state := "recording"
	if !st.Recording {
		state = "suspended"
	}
	where := "at tip"
	if st.Detached {
		where = "detached"
	}
	lines := []string{
		fmt.Sprintf("history: %s on timeline %d (%d timelines, %d keyframes, %d delta bytes)",
			state, st.TimelineID, st.Timelines, st.Keyframes, st.DeltaBytes),
		fmt.Sprintf("  cursor: pos %d cycle %d (%s)", st.CursorPos, st.CursorCycle, where),
		fmt.Sprintf("  tip: pos %d cycle %d, horizon: pos %d cycle %d",
			st.TipPos, st.TipCycle, st.HorizonPos, st.HorizonCycle),
	}
	if names := s.hist.SaveNames(); len(names) > 0 {
		lines = append(lines, "  savestates: "+strings.Join(names, ", "))
	}
	return lines
}

// TimelineLines renders the branch-timeline list for the REPL; the
// current timeline is starred.
func (s *Session) TimelineLines() []string {
	if s.hist == nil {
		return []string{"history: disabled"}
	}
	var lines []string
	for _, tl := range s.hist.TimelineList() {
		mark := " "
		if tl.Current {
			mark = "*"
		}
		from := "root"
		if tl.ParentID >= 0 {
			from = fmt.Sprintf("forked from %d at cycle %d", tl.ParentID, tl.ForkCycle)
		}
		lines = append(lines, fmt.Sprintf("%s timeline %d: cycles %d..%d, %d keyframes (%s)",
			mark, tl.ID, tl.StartCycle, tl.EndCycle, tl.Keyframes, from))
	}
	return lines
}

// HistoryKeyframesSince returns keyframe rows ([pos, cycle, bytes])
// recorded after gen and the next gen cursor — the feed behind the wire
// protocol's credit-based "history" stream for timeline scrubbing.
func (s *Session) HistoryKeyframesSince(gen uint64) (rows [][]uint64, next uint64) {
	next = gen
	if s.hist == nil {
		return nil, next
	}
	for _, kf := range s.hist.KeyframesSince(gen) {
		rows = append(rows, []uint64{kf.Pos, kf.Cycle, kf.Bytes})
		if kf.Gen >= next {
			next = kf.Gen
		}
	}
	return rows, next
}
