package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"zoomie/internal/farm"
	"zoomie/internal/rtl"
	"zoomie/internal/synth"
	"zoomie/internal/toolchain"
	"zoomie/internal/vti"
	"zoomie/internal/workloads"
)

// recompile_farm: an in-process compile farm serving a 256-core manycore.
// The load connections submit Recompile(spec, tag) in a closed loop. In
// every block of four submits one repeats a tag the client compiled
// earlier in the epoch (a cache hit), and every fourth fresh tag of
// client 1 is client 0's fresh tag of the same rank, so the two often
// meet in flight (single-flight sharing).
//
// The farm keeps every finished job, about 12 MB per 256-core recompile,
// for its lifetime. To keep a run's memory bounded the farm is restarted
// every farmEpochOps submits per client, like a daemon restart: the
// clients meet at a barrier, a fresh farm repeats the setup's cold
// initial compile, and the restart is left out of the measured window.
const (
	farmCores     = 256
	farmTagRange  = 64
	farmChecks    = 2 // recompiles re-checked cold-vs-warm with farm.CheckBitIdentity
	farmBlockSize = 4
	farmEpochOps  = 8
)

// farmSpec builds the manycore's first debug variant, whose tile 0 has a
// cluster module of its own: the farm's auto-detected debug partition.
func farmSpec() farm.Spec {
	return farm.Spec{
		Design: fmt.Sprintf("manycore%d", farmCores),
		Build: func() (*rtl.Design, error) {
			return workloads.NewManycore(farmCores).Variant(0), nil
		},
	}
}

// farmPhases are the VTI recompile phases the benchmark attributes time to.
var farmPhases = []string{vti.PhaseSynth, vti.PhasePlace, vti.PhaseRoute, vti.PhaseTiming, vti.PhaseBitgen, vti.PhaseLink}

func reportPhase(r toolchain.Report, phase string) time.Duration {
	switch phase {
	case vti.PhaseSynth:
		return r.Synth
	case vti.PhasePlace:
		return r.Place
	case vti.PhaseRoute:
		return r.Route
	case vti.PhaseTiming:
		return r.Timing
	case vti.PhaseBitgen:
		return r.Bitgen
	}
	return r.Link
}

// farmScript generates one client's tags. Fresh tags follow a seeded
// permutation of 1..farmTagRange: the twelve an epoch takes are distinct,
// and tag k's edit (k probe registers) stays small next to the partition,
// so recompiles cost about the same whichever tags a seed draws.
type farmScript struct {
	rng     *rand.Rand
	client  int
	perm    []int // the seed's fresh-tag order, shared by both clients
	fresh   int   // fresh tags taken so far
	history []int
	repeat  int // position of this block's repeat
	pos     int
}

func newFarmScript(seed int64, client int) *farmScript {
	perm := rand.New(rand.NewSource(seed*1_000_003 + 53)).Perm(farmTagRange)
	return &farmScript{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 59)),
		client: client, perm: perm, pos: farmBlockSize,
	}
}

// newEpoch forgets the tags compiled on the previous farm.
func (s *farmScript) newEpoch() {
	s.history = s.history[:0]
	s.pos = farmBlockSize
}

func (s *farmScript) next() int {
	if s.pos == farmBlockSize {
		s.pos = 0
		s.repeat = s.rng.Intn(farmBlockSize)
		if len(s.history) == 0 {
			s.repeat = farmBlockSize - 1
		}
	}
	s.pos++
	if s.pos-1 == s.repeat {
		return s.history[s.rng.Intn(len(s.history))]
	}
	k := s.fresh
	s.fresh++
	i := 2*k + s.client
	if s.client == 1 && k%4 == 3 {
		i = 2 * k // client 0's fresh tag of the same rank
	}
	tag := s.perm[i%len(s.perm)] + 1
	s.history = append(s.history, tag)
	return tag
}

// farmOp is one recompile as its submitter saw it. It keeps copies of
// what the run reports, not the job, so a restarted farm's jobs can be
// freed.
type farmOp struct {
	tag        int
	job        jobKey
	attach     farm.Attach
	start, end int64
	err        error
	traced     bool
	digest     string
	report     toolchain.Report
	phases     map[string][2]int64 // traced ops only
}

// jobKey names a job across farm restarts.
type jobKey struct {
	epoch int
	id    uint64
}

// phaseLog timestamps every phase entry through farm.Config.PhaseHook,
// plus the first time a submitter saw each job finish.
type phaseLog struct {
	mu    sync.Mutex
	marks map[uint64][]phaseMark
	done  map[uint64]int64
}

type phaseMark struct {
	phase string
	at    int64
}

func (p *phaseLog) hook(job uint64, phase string) {
	now := time.Now().UnixNano()
	p.mu.Lock()
	p.marks[job] = append(p.marks[job], phaseMark{phase, now})
	p.mu.Unlock()
}

func (p *phaseLog) finished(job uint64, at int64) {
	p.mu.Lock()
	if d, ok := p.done[job]; !ok || at < d {
		p.done[job] = at
	}
	p.mu.Unlock()
}

// intervals returns a job's phases as [start, end) unix-ns intervals.
func (p *phaseLog) intervals(job uint64) map[string][2]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	marks := p.marks[job]
	out := make(map[string][2]int64, len(marks))
	for i, m := range marks {
		end := p.done[job]
		if i+1 < len(marks) {
			end = marks[i+1].at
		}
		out[m.phase] = [2]int64{m.at, end}
	}
	return out
}

type farmEnv struct {
	f      *farm.Farm
	phases *phaseLog
}

func startFarm(spec farm.Spec) (*farmEnv, error) {
	p := &phaseLog{marks: map[uint64][]phaseMark{}, done: map[uint64]int64{}}
	f := farm.New(farm.Config{PhaseHook: p.hook})
	j, _, err := f.Compile(spec)
	if err != nil {
		return nil, err
	}
	if err := j.Wait(context.Background()); err != nil {
		return nil, fmt.Errorf("initial compile: %w", err)
	}
	return &farmEnv{f: f, phases: p}, nil
}

// farmEpochs hands the clients the current farm and restarts it when
// every client has finished an epoch.
type farmEpochs struct {
	spec    farm.Spec
	clients int
	done    func(paused time.Duration, ops int) bool

	mu       sync.Mutex
	cond     *sync.Cond
	env      *farmEnv
	gen      int
	arrived  int
	ops      int // submits per client so far
	stop     bool
	err      error
	paused   time.Duration    // restarts, left out of the window
	store    synth.StoreStats // checkpoint-store counter deltas of finished epochs
	baseline synth.StoreStats
}

func (e *farmEpochs) current() (*farmEnv, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.env, e.gen
}

// barrier ends a client's epoch. The last client to arrive decides
// whether the window is over and, if not, restarts the farm; it reports
// whether the clients should go on.
func (e *farmEpochs) barrier() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	gen := e.gen
	e.arrived++
	if e.arrived < e.clients {
		for gen == e.gen {
			e.cond.Wait()
		}
		return !e.stop
	}
	e.ops += farmEpochOps
	e.addStats()
	e.stop = e.done(e.paused, e.ops)
	if !e.stop {
		t0 := time.Now()
		env, err := startFarm(e.spec)
		e.paused += time.Since(t0)
		if err != nil {
			e.err, e.stop = fmt.Errorf("farm restart: %w", err), true
		} else {
			e.env, e.baseline = env, env.f.Stats().Store
		}
	}
	e.arrived = 0
	e.gen++
	e.cond.Broadcast()
	return !e.stop
}

// addStats folds the current farm's store counters since its epoch began
// into the run's totals. Callers hold mu.
func (e *farmEpochs) addStats() {
	st := e.env.f.Stats().Store
	e.store.Hits += st.Hits - e.baseline.Hits
	e.store.Misses += st.Misses - e.baseline.Misses
	e.baseline = st
}

func runRecompileFarm(cfg runConfig) (*runResult, error) {
	res := newResult()
	spec := farmSpec()
	env, setup, err := setupMedian(noPoll(func() (*farmEnv, error) { return startFarm(spec) }), func(*farmEnv) {})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res.set("setup_s", setup)

	// Trace blocks are whole epochs, so traced and untraced submits sit at
	// the same places relative to farm restarts.
	win := newWindow(cfg, farmEpochOps)
	win.measureHeap(cfg.clients)
	ep := &farmEpochs{spec: spec, clients: cfg.clients, env: env, baseline: env.f.Stats().Store,
		done: func(paused time.Duration, ops int) bool {
			return ops >= cfg.ops && (win.elapsed()-paused).Seconds() >= cfg.seconds
		}}
	ep.cond = sync.NewCond(&ep.mu)
	logs := make([][]farmOp, cfg.clients)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			scr := newFarmScript(cfg.seed, c)
			for i := 0; ; i++ {
				if i > 0 && i%farmEpochOps == 0 {
					if !ep.barrier() {
						return
					}
					scr.newEpoch()
				}
				env, epoch := ep.current()
				op := farmOp{tag: scr.next(), traced: win.traced(i)}
				t0 := time.Now()
				job, attach, err := env.f.Recompile(spec, op.tag)
				if err == nil {
					err = job.Wait(context.Background())
				}
				t1 := time.Now()
				op.start, op.end, op.attach, op.err = t0.UnixNano(), t1.UnixNano(), attach, err
				if err == nil {
					op.job = jobKey{epoch, job.ID()}
					op.digest = job.Status().Digest
					op.report = job.Result().Report
					env.phases.finished(job.ID(), op.end)
					if op.traced {
						op.phases = env.phases.intervals(job.ID())
					}
				}
				logs[c] = append(logs[c], op)
				win.finished(i)
			}
		}(c)
	}
	wg.Wait()
	if ep.err != nil {
		return nil, ep.err
	}
	window := win.elapsed() - ep.paused
	res.set("heap_live_mb", win.heapMB)

	failed, lines := verifyFarm(cfg, spec, logs)
	var lat []float64
	for _, ops := range logs {
		for _, op := range ops {
			lat = append(lat, float64(op.end-op.start)/1e3)
		}
	}
	res.attempted = int64(len(lat))
	res.failed = failed
	res.notes = append(res.notes, lines...)
	res.set("op_p50_us", percentile(lat, 0.50))
	res.set("op_p90_us", percentile(lat, 0.90))
	res.set("op_samples", float64(len(lat)))
	res.set("ops_per_s", float64(len(lat))/window.Seconds())
	res.set("error_rate", ratio(float64(res.failed), float64(res.attempted)))

	// Modeled compile time per submitted recompile over each client's
	// first -ops submits: every distinct job the submits landed on counts
	// once, so hits and shared submits cost nothing.
	prefix := map[jobKey]toolchain.Report{}
	submits := 0
	for _, ops := range logs {
		for _, op := range ops[:min(len(ops), cfg.ops)] {
			submits++
			if op.err == nil {
				prefix[op.job] = op.report
			}
		}
	}
	var modeled time.Duration
	cells := 0
	perPhase := map[string]time.Duration{}
	for _, r := range prefix {
		modeled += r.Total()
		cells += r.CellsSynthesized
		for _, ph := range farmPhases {
			perPhase[ph] += reportPhase(r, ph)
		}
	}
	res.set("modeled_ms_per_op", float64(modeled)/1e6/float64(submits))
	// Concurrent recompiles race to fill the shared checkpoint store, so
	// which job synthesizes a shared module, and is charged for it, can
	// change from run to run.
	res.inexact["modeled_ms_per_op"] = true
	if !cfg.trace {
		return res, nil
	}

	// The farm's own submit counters also count each recompile's internal
	// lookup of its base compile, so hits and shares come from the
	// submitters' attach results.
	attaches := map[farm.Attach]float64{}
	for _, ops := range logs {
		for _, op := range ops {
			attaches[op.attach]++
		}
	}
	n := float64(len(lat))
	res.set("farm.hit_ratio", attaches[farm.AttachHit]/n)
	res.set("farm.shared_ratio", attaches[farm.AttachShared]/n)
	res.set("synth.store_hit_ratio", ratio(float64(ep.store.Hits), float64(ep.store.Hits+ep.store.Misses)))
	res.set("synth.cells_synthesized_per_op", float64(cells)/float64(submits))
	for _, ph := range farmPhases {
		res.set(ph+".modeled_s_per_op", perPhase[ph].Seconds()/float64(submits))
	}

	// Spans: each traced recompile, with the phases of the job it landed
	// on clipped to its own interval; whatever the phases do not cover is
	// the farm's (submit, digest, base lookup, queueing, waiting).
	tr := &tracer{}
	var untraced []float64
	wall := map[string]float64{}
	traced := 0
	for c, ops := range logs {
		for i, op := range ops {
			if !op.traced {
				untraced = append(untraced, float64(op.end-op.start)/1e3)
				continue
			}
			if op.err != nil {
				continue
			}
			traced++
			req := tr.request(true)
			name := fmt.Sprintf("c%d.%d", c, i)
			root := tr.add(req, 0, "farm.recompile", name, op.start, op.end, false,
				map[string]int64{"tag": int64(op.tag), "attach": int64(op.attach)})
			for _, ph := range farmPhases {
				p, ok := op.phases[ph]
				if !ok {
					continue
				}
				s, e := max(p[0], op.start), min(p[1], op.end)
				if e <= s {
					continue
				}
				wall[ph] += float64(e-s) / 1e6
				tr.add(req, root, ph+".job", name, s, e, false, nil)
			}
		}
	}
	for _, ph := range farmPhases {
		res.set(ph+".wall_ms_per_op", ratio(wall[ph], float64(traced)))
	}
	tr.setSelfMetrics(res, median(untraced))
	return res, finishTrace(res, tr, cfg)
}

// verifyFarm checks every recompile: no submit failed, equal tags got
// equal bitstream digests, and a seeded sample of tags rebuilds cold to
// the same bits the farm served warm (farm.CheckBitIdentity).
func verifyFarm(cfg runConfig, spec farm.Spec, logs [][]farmOp) (int64, []string) {
	mm := &mismatches{workload: cfg.workload, seed: cfg.seed}
	var failed int64
	digests := map[int]string{}
	var tags []int
	for c, ops := range logs {
		for i, op := range ops {
			if op.err != nil {
				failed++
				mm.report(c, i, "recompile tag %d: %v", op.tag, op.err)
				continue
			}
			d := op.digest
			if prev, ok := digests[op.tag]; !ok {
				digests[op.tag] = d
				tags = append(tags, op.tag)
			} else if prev != d {
				failed++
				mm.report(c, i, "tag %d digest %s, earlier %s", op.tag, d, prev)
			}
		}
	}
	sort.Ints(tags)
	rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + 61))
	rng.Shuffle(len(tags), func(i, j int) { tags[i], tags[j] = tags[j], tags[i] })
	for _, tag := range tags[:min(len(tags), farmChecks)] {
		cold, warm, err := farm.CheckBitIdentity(context.Background(), spec, tag)
		if err == nil && (cold != warm || warm != digests[tag]) {
			err = fmt.Errorf("cold %s, warm %s, served %s", cold, warm, digests[tag])
		}
		if err != nil {
			failed++
			mm.report(-1, -1, "bit identity of tag %d: %v", tag, err)
		}
	}
	if int64(len(mm.lines)) < failed {
		mm.lines = append(mm.lines, fmt.Sprintf("(%d further mismatches not printed)", failed-int64(len(mm.lines))))
	}
	return failed, mm.lines
}
