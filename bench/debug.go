package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/dbg"
	"zoomie/internal/workloads"
)

// The debug workloads all drive workloads.ManycoreSoC(48), served under
// this catalog name.
const designName = "zperf48"

func buildDesign() (*zoomie.Design, zoomie.DebugConfig) {
	return workloads.ManycoreSoC(48), zoomie.DebugConfig{}
}

func initSession(s *zoomie.Session) error { return s.PokeInput("en", 1) }

// newTwin builds the in-process twin of one remote session: the same
// design and configuration, started and paused exactly as a client leaves
// its session after attaching.
func newTwin() (*zoomie.Session, error) {
	d, cfg := buildDesign()
	s, err := zoomie.Debug(d, cfg)
	if err != nil {
		return nil, err
	}
	if err := initSession(s); err != nil {
		return nil, err
	}
	return s, s.Pause()
}

type regInfo struct {
	name  string
	width int
}

// userRegs lists the design's own registers (the Debug Controller's are
// excluded), sorted so scripts index them identically in every process.
func userRegs(s *zoomie.Session) []regInfo {
	var regs []regInfo
	for _, r := range s.Image.Map.Regs {
		if strings.HasPrefix(r.Name, dbg.DutPrefix+".") {
			regs = append(regs, regInfo{r.Name, r.Width})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].name < regs[j].name })
	return regs
}

type opKind uint8

const (
	opPeek opKind = iota
	opPeekBatch
	opPoke
	opStep
	opStatus
)

var kindNames = [...]string{"peek", "peekbatch", "poke", "step", "status"}

func (k opKind) String() string { return kindNames[k] }

// mixBlock is one block of the debug mix: 60% peek, 15% peekbatch of 16
// registers, 10% poke, 10% step of 1-4 cycles and 5% status. The order
// is fixed (the seed picks registers, values and step counts), so every
// 20 ops carry the exact mix with mutating ops spread evenly: latency
// percentiles then sit inside one op kind's distribution rather than on
// the edge between two, and trace blocks that are multiples of 20 ops
// see the same mix traced and untraced.
var mixBlock = [20]opKind{
	opPeek, opPeek, opPeekBatch, opPeek, opPoke,
	opPeek, opPeek, opStep, opPeek, opStatus,
	opPeek, opPeekBatch, opPeek, opPeek, opPoke,
	opPeek, opStep, opPeek, opPeekBatch, opPeek,
}

const batchSize = 16

type debugOp struct {
	kind  opKind
	regs  []int // register indexes: one for peek/poke, batchSize for peekbatch
	value uint64
	n     int
}

// debugScript generates one client's op sequence from the seed.
type debugScript struct {
	rng  *rand.Rand
	regs []regInfo
	n    int
}

func newDebugScript(seed int64, client int, regs []regInfo) *debugScript {
	src := rand.NewSource(seed*1_000_003 + int64(client)*7919 + 17)
	return &debugScript{rng: rand.New(src), regs: regs}
}

func (s *debugScript) next() debugOp {
	op := debugOp{kind: mixBlock[s.n%len(mixBlock)]}
	s.n++
	switch op.kind {
	case opPeek:
		op.regs = []int{s.rng.Intn(len(s.regs))}
	case opPeekBatch:
		op.regs = make([]int, batchSize)
		for i := range op.regs {
			op.regs[i] = s.rng.Intn(len(s.regs))
		}
	case opPoke:
		r := s.rng.Intn(len(s.regs))
		op.regs = []int{r}
		op.value = s.rng.Uint64()
		if w := s.regs[r].width; w < 64 {
			op.value &= 1<<uint(w) - 1
		}
	case opStep:
		op.n = 1 + s.rng.Intn(4)
	}
	return op
}

// execRemote runs one op on a remote session, appending its results
// (peek: value; peekbatch: values; status: paused, cycles) to dst.
// elapsed is the session's modeled cable time for status ops.
func execRemote(s *client.Session, op debugOp, regs []regInfo, dst []uint64) ([]uint64, time.Duration, error) {
	switch op.kind {
	case opPeek:
		v, err := s.Peek(regs[op.regs[0]].name)
		return append(dst, v), 0, err
	case opPeekBatch:
		items := make([]dbg.PlanItem, len(op.regs))
		for i, r := range op.regs {
			items[i] = dbg.PlanItem{Name: regs[r].name}
		}
		vals, err := s.PeekBatch(items)
		return append(dst, vals...), 0, err
	case opPoke:
		return dst, 0, s.Poke(regs[op.regs[0]].name, op.value)
	case opStep:
		return dst, 0, s.Step(op.n)
	default:
		paused, cycles, elapsed, err := s.Status()
		return append(dst, b2u(paused), cycles), elapsed, err
	}
}

// execLocal is execRemote on an in-process session: the same facade
// calls the server's session actor makes.
func execLocal(s *zoomie.Session, op debugOp, regs []regInfo, dst []uint64) ([]uint64, error) {
	switch op.kind {
	case opPeek:
		v, err := s.Peek(regs[op.regs[0]].name)
		return append(dst, v), err
	case opPeekBatch:
		names := make([]string, len(op.regs))
		for i, r := range op.regs {
			names[i] = regs[r].name
		}
		vals, err := s.PeekBatch(names)
		return append(dst, vals...), err
	case opPoke:
		return dst, s.Poke(regs[op.regs[0]].name, op.value)
	case opStep:
		return dst, s.Step(op.n)
	default:
		paused, err := s.Paused()
		if err != nil {
			return dst, err
		}
		cycles, err := s.Cycles()
		return append(dst, b2u(paused), cycles), err
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// statusObs is one status op's modeled cable time, for modeled_ms_per_op.
type statusObs struct {
	idx     int
	elapsed time.Duration
	// failovers is the fleet failover counter when the op returned; a
	// status interval that spans a failover compares two boards' cables
	// and is skipped.
	failovers uint64
}

// tracedOp is the boundary timestamps of one traced remote op (unix ns).
type tracedOp struct {
	idx        int
	start, end int64
	wrote      int64 // request's last byte written (0 = not seen)
	read       int64 // response's first byte read (0 = not seen)
	bytes      int64
}

// clientLog is one load connection's transcript of a measured window.
type clientLog struct {
	kinds  []opKind
	lat    []float64 // µs per op
	start  []int64   // op start, unix ns
	res    []uint64  // result arena
	resOff []int32   // op i's results are res[resOff[i]:resOff[i+1]]
	errs   map[int]error
	status []statusObs
	traced []tracedOp
}

func newClientLog() *clientLog {
	return &clientLog{resOff: []int32{0}, errs: make(map[int]error)}
}

func (l *clientLog) ops() int { return len(l.lat) }

func (l *clientLog) results(i int) []uint64 { return l.res[l.resOff[i]:l.resOff[i+1]] }

// opHooks lets a workload observe each op of the shared remote loop.
type opHooks struct {
	conn      *tconn        // traced conn wrapper, or nil
	failovers func() uint64 // fleet failover counter, or nil
}

// driveRemote is one client's closed loop over the debug mix: issue the
// next scripted op, wait for the reply, record it, repeat until the
// window closes.
func driveRemote(win *window, sess *client.Session, scr *debugScript, regs []regInfo, h opHooks) *clientLog {
	l := newClientLog()
	for i := 0; !win.done(i); i++ {
		op := scr.next()
		traced := h.conn != nil && win.traced(i)
		if traced {
			h.conn.begin()
		}
		t0 := time.Now()
		var elapsed time.Duration
		var err error
		l.res, elapsed, err = execRemote(sess, op, regs, l.res)
		t1 := time.Now()
		if traced {
			w, r, b := h.conn.end()
			l.traced = append(l.traced, tracedOp{idx: i, start: t0.UnixNano(), end: t1.UnixNano(), wrote: w, read: r, bytes: b})
		}
		l.kinds = append(l.kinds, op.kind)
		l.lat = append(l.lat, us(t1.Sub(t0)))
		l.start = append(l.start, t0.UnixNano())
		l.resOff = append(l.resOff, int32(len(l.res)))
		win.finished(i)
		if err != nil {
			l.errs[i] = err
		} else if op.kind == opStatus {
			obs := statusObs{idx: i, elapsed: elapsed}
			if h.failovers != nil {
				obs.failovers = h.failovers()
			}
			l.status = append(l.status, obs)
		}
	}
	return l
}

// twinReplay is what replaying one client's transcript on its twin found.
type twinReplay struct {
	failed int64
	dur    []float64 // µs per op; only filled for a traced run
	// prefix is the twin's cable counters over the first -ops ops; total
	// over every op.
	prefix, total cableCounters
	prefixOps     int
}

// cableCounters is a snapshot of one session's configuration-plane
// counters (jtag.CableStats and bitstream.ChainStats), indexed by the
// c* constants.
type cableCounters [numCounters]int64

const (
	cRetries = iota
	cReReads
	cRewrites
	cReadbacks
	cWritebacks
	cFramesRead
	cFramesWritten
	cHops
	cCommands
	cElapsedNS
	numCounters
)

func readCounters(s *zoomie.Session) cableCounters {
	cs, ch := s.Cable.Stats(), s.Cable.Chain.Stats
	return cableCounters{
		cRetries: cs.Retries, cReReads: cs.ReReads, cRewrites: cs.Rewrites,
		cReadbacks: cs.Readbacks, cWritebacks: cs.Writebacks,
		cFramesRead: int64(ch.FramesRead), cFramesWritten: int64(ch.FramesWritten),
		cHops: int64(ch.Hops), cCommands: int64(ch.Commands),
		cElapsedNS: int64(s.Elapsed()),
	}
}

func (a cableCounters) sub(b cableCounters) cableCounters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a cableCounters) add(b cableCounters) cableCounters {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// mismatchLimit caps the mismatch lines one run prints.
const mismatchLimit = 10

// mismatches prints the first few transcript mismatches of a run.
type mismatches struct {
	workload string
	seed     int64
	printed  int
	lines    []string
}

func (m *mismatches) report(client, idx int, format string, args ...any) {
	if m.printed >= mismatchLimit {
		return
	}
	m.printed++
	m.lines = append(m.lines, fmt.Sprintf("mismatch: workload=%s seed=%d client=%d op=%d: %s",
		m.workload, m.seed, client, idx, fmt.Sprintf(format, args...)))
}

// replayTwin re-runs a client's script on its twin, outside the timed
// window, and compares every op's results with the remote transcript. A
// failed remote op or any differing value counts as failed; the replay
// never stops early.
func replayTwin(twin *zoomie.Session, seed int64, client int, regs []regInfo, l *clientLog, prefix int, timed bool, mm *mismatches) twinReplay {
	var out twinReplay
	if timed {
		out.dur = make([]float64, l.ops())
	}
	scr := newDebugScript(seed, client, regs)
	base := readCounters(twin)
	var buf []uint64
	for i := 0; i < l.ops(); i++ {
		if i == prefix {
			out.prefix, out.prefixOps = readCounters(twin).sub(base), i
		}
		op := scr.next()
		t0 := time.Now()
		var err error
		buf, err = execLocal(twin, op, regs, buf[:0])
		if timed {
			out.dur[i] = us(time.Since(t0))
		}
		switch rerr := l.errs[i]; {
		case rerr != nil:
			out.failed++
			mm.report(client, i, "%s failed remotely: %v", op.kind, rerr)
		case err != nil:
			out.failed++
			mm.report(client, i, "%s failed on the twin: %v", op.kind, err)
		case !slices.Equal(buf, l.results(i)):
			out.failed++
			mm.report(client, i, "%s returned %v, twin %v", op.kind, l.results(i), buf)
		}
	}
	out.total = readCounters(twin).sub(base)
	if prefix >= l.ops() {
		out.prefix, out.prefixOps = out.total, l.ops()
	}
	return out
}

// modeledFromStatus is modeled cable ms per op from status deltas: the
// sum of modeled-time deltas between consecutive status ops over the ops
// between them. Only status ops before index limit count; intervals that
// span a failover are skipped.
func modeledFromStatus(logs []*clientLog, limit int) float64 {
	var ms, ops float64
	for _, l := range logs {
		var prev *statusObs
		for i := range l.status {
			s := &l.status[i]
			if s.idx >= limit {
				break
			}
			if prev != nil && prev.failovers == s.failovers {
				ms += float64(s.elapsed-prev.elapsed) / float64(time.Millisecond)
				ops += float64(s.idx - prev.idx)
			}
			prev = s
		}
	}
	return ratio(ms, ops)
}

// latencies concatenates the per-op latencies of every client.
func latencies(logs []*clientLog) []float64 {
	var all []float64
	for _, l := range logs {
		all = append(all, l.lat...)
	}
	return all
}
