package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"zoomie"
	"zoomie/internal/core"
)

// timetravel_local drives one in-process session with a 256-keyframe
// history ring: run a seeded 64-512 cycles, pause, sample 16 registers,
// and interleave seeks, rewinds and savestate/loadstate to seeded earlier
// cycles. Seek distances are log-uniform over 10-8000 cycles, so they
// span the 64-cycle keyframe interval and most of the ring.
const (
	ttKeyframes   = 256
	ttBlockIters  = 4 // iterations per trace block
	ttSampleRegs  = 16
	ttMinRun      = 64
	ttMaxRun      = 512
	ttMinDistance = 10
	ttMaxDistance = 8000
	ttSaveSlots   = 8
	ttOverheadRun = 40 // run ops replayed to measure recording overhead
)

type ttKind int

const (
	ttRun ttKind = iota
	ttSample
	ttSeek
	ttRewind
	ttSave
	ttLoad
)

var ttNames = [...]string{"run", "peekbatch", "seek", "rewind", "savestate", "loadstate"}

func (k ttKind) headline() bool { return k == ttSeek || k == ttRewind || k == ttLoad }

// ttSlot is the history op an iteration performs after its sample.
type ttSlot int

const (
	slotNone ttSlot = iota
	slotSeek
	slotRewind
	slotState // savestate on even blocks, loadstate on odd ones
)

// ttPoint is a sample recorded on the way forward: the sampled registers
// at a cycle of the current timeline.
type ttPoint struct {
	cycle uint64
	vals  []uint64
	// seekable is false at a cycle where a loadstate wrote state: a seek
	// there cannot say which side of the load it lands on.
	seekable bool
}

// stratified draws values in [0, 1) such that every stratumCount
// consecutive draws land once in each of stratumCount equal strata, in a
// seeded order. Run lengths and seek distances drawn this way cover their
// range evenly within a run, so seeds differ less in how much history a
// run records, forks and seeks across.
type stratified struct {
	rng   *rand.Rand
	order []int
}

const stratumCount = 8

func (s *stratified) next() float64 {
	if len(s.order) == 0 {
		s.order = s.rng.Perm(stratumCount)
	}
	k := s.order[0]
	s.order = s.order[1:]
	return (float64(k) + s.rng.Float64()) / stratumCount
}

// ttOp is one timed command of the window.
type ttOp struct {
	kind       ttKind
	start, end int64 // unix ns
	// advance is the Board.Advance part of a run op: its cycles and time.
	cycles         int
	advStart, advE int64
	// restoreUS is, for a traced history op, a restore of the design's
	// state timed on a clean session right after it.
	restoreUS float64
}

func newTimeTravelSession(disable bool) (*zoomie.Session, error) {
	d, dcfg := buildDesign()
	dcfg.History = &zoomie.HistoryConfig{MaxKeyframes: ttKeyframes, Disable: disable}
	s, err := zoomie.Debug(d, dcfg)
	if err != nil {
		return nil, err
	}
	if err := initSession(s); err != nil {
		return nil, err
	}
	return s, s.Pause()
}

func runTimeTravel(cfg runConfig) (*runResult, error) {
	res := newResult()
	s, setup, err := setupMedian(noPoll(func() (*zoomie.Session, error) { return newTimeTravelSession(false) }),
		func(s *zoomie.Session) { s.Close() })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer s.Close()
	res.set("setup_s", setup)

	rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + 29))
	var paired *restorer
	regs := userRegs(s)
	names := make([]string, 0, ttSampleRegs+1)
	for _, i := range rng.Perm(len(regs))[:ttSampleRegs] {
		names = append(names, regs[i].name)
	}
	names = append(names, s.Meta.Reg(core.RegCycles))

	if cfg.trace {
		clean, err := newTimeTravelSession(true)
		if err != nil {
			return nil, err
		}
		defer clean.Close()
		if paired, err = newRestorer(clean); err != nil {
			return nil, err
		}
	}
	tt := &ttState{s: s, rng: rng, names: names, saves: map[string][]uint64{}, restorer: paired,
		runs: stratified{rng: rng}, dists: stratified{rng: rng},
		mm: mismatches{workload: cfg.workload, seed: cfg.seed}}
	win := newWindow(cfg, ttBlockIters)
	win.measureHeap(1)
	base := readCounters(s)
	var prefix cableCounters
	prefixOps := 0
	var slots [4]ttSlot
	for i := 0; !win.done(i); i++ {
		if i == cfg.ops {
			prefix, prefixOps = readCounters(s).sub(base), len(tt.ops)
		}
		if i%len(slots) == 0 {
			slots = [4]ttSlot{slotSeek, slotRewind, slotState, slotNone}
			rng.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
		}
		tt.traced = win.traced(i)
		if err := tt.iteration(slots[i%len(slots)], (i/len(slots))%2 == 1); err != nil {
			return nil, err
		}
		win.finished(i)
	}
	window := win.elapsed()
	res.set("heap_live_mb", win.heapMB)
	total := readCounters(s).sub(base)
	if prefixOps == 0 {
		prefix, prefixOps = total, len(tt.ops)
	}

	var head []float64
	byKind := map[ttKind][]float64{}
	var cycles, advance float64
	for _, op := range tt.ops {
		d := float64(op.end-op.start) / 1e3
		byKind[op.kind] = append(byKind[op.kind], d)
		switch {
		case op.kind.headline():
			head = append(head, d)
		case op.kind == ttRun:
			cycles += float64(op.cycles)
			advance += float64(op.advE-op.advStart) / 1e9
		}
	}
	res.attempted = int64(len(tt.ops))
	res.failed = tt.failed
	res.set("op_p50_us", percentile(head, 0.50))
	res.set("op_p90_us", percentile(head, 0.90))
	res.set("op_samples", float64(len(head)))
	res.set("ops_per_s", float64(len(head))/window.Seconds())
	res.set("modeled_ms_per_op", float64(prefix[cElapsedNS])/1e6/float64(prefixOps))
	res.set("sim_cycles_per_s", ratio(cycles, advance))
	res.set("error_rate", ratio(float64(res.failed), float64(res.attempted)))
	res.notes = append(res.notes, tt.mm.lines...)
	if !cfg.trace {
		return res, nil
	}

	ops := float64(len(tt.ops))
	res.set("dbg.readbacks_per_op", float64(prefix[cReadbacks])/float64(prefixOps))
	res.set("dbg.writebacks_per_op", float64(prefix[cWritebacks])/float64(prefixOps))
	res.set("jtag.retries_per_op", float64(total[cRetries])/ops)
	res.set("jtag.rereads_per_op", float64(total[cReReads])/ops)
	res.set("jtag.rewrites_per_op", float64(total[cRewrites])/ops)
	res.set("jtag.useful_frame_ratio", 1) // a clean link reads nothing twice
	setBitstreamMetrics(res, total, ops)
	for k, name := range map[ttKind]string{
		ttRun: "zoomie.run_p50_us", ttSample: "zoomie.peekbatch_p50_us", ttSeek: "zoomie.seek_p50_us",
		ttRewind: "zoomie.rewind_p50_us", ttLoad: "zoomie.loadstate_p50_us",
	} {
		res.set(name, median(byKind[k]))
	}
	var ticks []float64
	for _, op := range tt.ops {
		if op.kind == ttRun && op.cycles > 0 {
			ticks = append(ticks, float64(op.advE-op.advStart)/1e3/float64(op.cycles))
		}
	}
	res.set("sim.tick_us", median(ticks))
	if err := setSampledMetrics(res, s, nil); err != nil {
		return nil, err
	}
	over, err := recordOverhead(tt.ops)
	if err != nil {
		return nil, err
	}
	res.set("history.record_overhead", over)

	// Headline spans: the history op, with the restore timed right after it
	// on the clean session as its attributed child; what remains is the
	// history engine's reconstruction plus the facade around it.
	var restores []float64
	for _, op := range tt.ops {
		if op.restoreUS > 0 {
			restores = append(restores, op.restoreUS)
		}
	}
	res.set("dbg.restore_us", median(restores))
	tr := &tracer{}
	var untraced []float64
	for i, op := range tt.ops {
		if !op.traced {
			if op.kind.headline() {
				untraced = append(untraced, float64(op.end-op.start)/1e3)
			}
			continue
		}
		req := tr.request(op.kind.headline())
		name := fmt.Sprintf("c0.%d", i)
		switch {
		case op.kind.headline():
			root := tr.add(req, 0, "history."+ttNames[op.kind], name, op.start, op.end, false, nil)
			tr.add(req, root, "dbg.restore", name, op.end-int64(op.restoreUS*1e3), op.end, true, nil)
		case op.kind == ttRun:
			root := tr.add(req, 0, "zoomie.run", name, op.start, op.end, false, map[string]int64{"cycles": int64(op.cycles)})
			tr.add(req, root, "sim.advance", name, op.advStart, op.advE, false, nil)
		default:
			tr.add(req, 0, "zoomie."+ttNames[op.kind], name, op.start, op.end, false, nil)
		}
	}
	tr.setSelfMetrics(res, median(untraced))
	return res, finishTrace(res, tr, cfg)
}

// ttState is the state of one timetravel_local window.
type ttState struct {
	s      *zoomie.Session
	rng    *rand.Rand
	names  []string // sampled registers, then the cycle counter
	traced bool
	// runs and dists draw run lengths and seek distances.
	runs, dists stratified
	// restorer, in a traced run, times a restore after each traced
	// history op, attributing the op's time between restore and the rest.
	restorer *restorer

	points []ttPoint // current timeline's samples, ascending cycles
	saves  map[string][]uint64
	nSaves int
	ops    []ttOpRec
	failed int64
	mm     mismatches
}

type ttOpRec struct {
	ttOp
	traced bool
}

func (t *ttState) record(op ttOp) {
	t.ops = append(t.ops, ttOpRec{op, t.traced})
}

// timed runs f as one command of the given kind.
func (t *ttState) timed(kind ttKind, f func() error) error {
	t0 := time.Now()
	err := f()
	t.record(ttOp{kind: kind, start: t0.UnixNano(), end: time.Now().UnixNano()})
	return err
}

// sample peeks the sampled registers and the cycle counter.
func (t *ttState) sample() ([]uint64, uint64, error) {
	var vals []uint64
	err := t.timed(ttSample, func() error {
		var err error
		vals, err = t.s.PeekBatch(t.names)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	n := len(vals) - 1
	return vals[:n], vals[n], nil
}

func (t *ttState) fail(format string, args ...any) {
	t.failed++
	t.mm.report(0, len(t.ops)-1, format, args...)
}

// iteration runs forward, samples, then performs its history op and
// checks the state it lands on against the sample recorded for it on
// the way forward.
func (t *ttState) iteration(slot ttSlot, odd bool) error {
	n := ttMinRun + int(t.runs.next()*float64(ttMaxRun-ttMinRun+1))
	op := ttOp{kind: ttRun, cycles: n}
	t0 := time.Now()
	if err := t.s.Resume(); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	a0 := time.Now()
	t.s.Run(n)
	a1 := time.Now()
	if err := t.s.Pause(); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	op.start, op.end, op.advStart, op.advE = t0.UnixNano(), time.Now().UnixNano(), a0.UnixNano(), a1.UnixNano()
	t.record(op)

	vals, cyc, err := t.sample()
	if err != nil {
		return fmt.Errorf("sample: %w", err)
	}
	t.points = append(t.points, ttPoint{cycle: cyc, vals: vals, seekable: true})

	switch {
	case slot == slotSeek || slot == slotRewind:
		target, ok := t.pickTarget(cyc)
		if !ok {
			return nil
		}
		p := t.points[target]
		var landed uint64
		if slot == slotSeek {
			err = t.timed(ttSeek, func() error { _, err := t.s.Seek(p.cycle); return err })
			landed = p.cycle
		} else {
			err = t.timed(ttRewind, func() error {
				var err error
				landed, _, err = t.s.Rewind(cyc - p.cycle)
				return err
			})
		}
		if err != nil {
			t.fail("%s to cycle %d: %v", ttNames[t.ops[len(t.ops)-1].kind], p.cycle, err)
			return nil
		}
		t.points = t.points[:target+1]
		t.check(p.vals, p.cycle, landed)
	case slot == slotState && (!odd || t.nSaves == 0):
		name := fmt.Sprintf("s%d", t.nSaves%ttSaveSlots)
		if err := t.timed(ttSave, func() error { _, _, _, err := t.s.SaveState(name); return err }); err != nil {
			t.fail("savestate %s: %v", name, err)
			return nil
		}
		t.saves[name] = vals
		t.nSaves++
	case slot == slotState:
		name := fmt.Sprintf("s%d", t.rng.Intn(min(t.nSaves, ttSaveSlots)))
		var landed uint64
		if err := t.timed(ttLoad, func() error { var err error; landed, err = t.s.LoadState(name); return err }); err != nil {
			t.fail("loadstate %s: %v", name, err)
			return nil
		}
		// The load wrote the design's state at this cycle, so the cycle
		// now means the loaded state: replace its sample with one a seek
		// never targets.
		t.points = t.points[:len(t.points)-1]
		t.points = append(t.points, ttPoint{cycle: cyc, vals: t.saves[name]})
		t.check(t.saves[name], cyc, landed)
	}
	return nil
}

// check samples the state a history op landed on and compares it with
// the expected values and cycle. In a traced block it then times the
// paired restore for the op.
func (t *ttState) check(want []uint64, wantCycle, landed uint64) {
	if i := len(t.ops) - 1; t.traced && t.restorer != nil {
		defer func() {
			d, err := t.restorer.restore()
			if err != nil {
				t.fail("paired restore: %v", err)
			}
			t.ops[i].restoreUS = d
		}()
	}
	got, cyc, err := t.sample()
	switch {
	case err != nil:
		t.fail("sample after history op: %v", err)
	case cyc != wantCycle || landed != wantCycle:
		t.fail("landed on cycle %d (reported %d), want %d", cyc, landed, wantCycle)
	case !slices.Equal(got, want):
		t.fail("state at cycle %d is %v, recorded %v", wantCycle, got, want)
	}
}

// pickTarget draws a log-uniform distance and returns the index of the
// seekable sample nearest to that many cycles before cur, strictly in the
// past and a keyframe inside the recorded horizon.
func (t *ttState) pickTarget(cur uint64) (int, bool) {
	d := math.Exp(math.Log(ttMinDistance) + t.dists.next()*(math.Log(ttMaxDistance)-math.Log(ttMinDistance)))
	want := float64(cur) - d
	floor := t.horizon() + 64
	best := -1
	for i, p := range t.points {
		if !p.seekable || p.cycle >= cur || p.cycle < floor {
			continue
		}
		if best < 0 || math.Abs(float64(p.cycle)-want) < math.Abs(float64(t.points[best].cycle)-want) {
			best = i
		}
	}
	return best, best >= 0
}

// horizon reads the oldest cycle the cursor's timeline can still seek to
// from the history status.
func (t *ttState) horizon() uint64 {
	for _, l := range t.s.HistoryStatusLines() {
		if _, rest, ok := strings.Cut(l, "horizon: "); ok {
			var pos, cyc uint64
			if _, err := fmt.Sscanf(rest, "pos %d cycle %d", &pos, &cyc); err == nil {
				return cyc
			}
		}
	}
	return math.MaxUint64
}

// recordOverhead replays the window's first run ops on two fresh
// sessions, history recording on and off, alternating, and returns the
// ratio of their simulated cycles per second (off over on).
func recordOverhead(ops []ttOpRec) (float64, error) {
	on, err := newTimeTravelSession(false)
	if err != nil {
		return 0, err
	}
	defer on.Close()
	off, err := newTimeTravelSession(true)
	if err != nil {
		return 0, err
	}
	defer off.Close()
	var tOn, tOff time.Duration
	runs := 0
	for _, op := range ops {
		if op.kind != ttRun || runs == ttOverheadRun {
			continue
		}
		runs++
		for _, s := range []*zoomie.Session{on, off} {
			if err := s.Resume(); err != nil {
				return 0, err
			}
			t0 := time.Now()
			s.Run(op.cycles)
			if s == on {
				tOn += time.Since(t0)
			} else {
				tOff += time.Since(t0)
			}
			if err := s.Pause(); err != nil {
				return 0, err
			}
		}
	}
	return ratio(float64(tOn), float64(tOff)), nil
}
