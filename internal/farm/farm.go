// Package farm is the shared compile service behind zoomied's
// CompileSubmit/CompileStatus/CompileCancel ops: a process-wide,
// content-addressed checkpoint store plus a refcounted job table over
// VTI's cancellable compiles (internal/vti). Because jobs are keyed by
// design content — not by who submitted them — a second client compiling
// the same design gets the first client's finished artifact as an
// instant cache hit, concurrent identical submits share one execution
// (single-flight), and a partition checkpoint synthesized for one design
// is free for every other design that instantiates the same module.
//
// Cancellation is refcounted: every submit attaches one reference to the
// job it lands on, and the job's context is cancelled only when the last
// holder releases (an explicit cancel op or a client disconnect). A job
// deduped across two clients survives either one walking away.
package farm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"zoomie/internal/place"
	"zoomie/internal/rtl"
	"zoomie/internal/synth"
	"zoomie/internal/toolchain"
	"zoomie/internal/vti"
)

// PartitionName is the partition every farm compile declares: the single
// over-provisioned debug partition a client iterates on (§3.5).
const PartitionName = "mut"

// Config tunes a Farm.
type Config struct {
	// StoreCap bounds the checkpoint store (entries; <= 0 = unbounded).
	StoreCap int
	// Store, when non-nil, supplies the shared checkpoint store and
	// StoreCap is ignored. The toolchain self-checker injects wrapped
	// stores here to prove the farm's content addressing is itself under
	// test (a wrapper serving stale netlists must be caught).
	Store synth.Store
	// Speculate pre-warms the first debug edit of a freshly compiled
	// design: after an initial compile finishes, the farm recompiles edit
	// tag 1 of its partition on its own dime, so the client's first real
	// recompile is usually an instant cache hit.
	Speculate bool
	// Logf, when set, receives one line per job lifecycle event.
	Logf func(format string, args ...any)
	// PhaseHook, when set, observes every phase entry synchronously
	// before the job records it — tracing and test instrumentation (a
	// hook that blocks, blocks the compile).
	PhaseHook func(job uint64, phase string)
}

// Spec describes one compilable design.
type Spec struct {
	// Design is the catalog name, used in keys and status lines.
	Design string
	// Build returns a freshly parsed copy of the design. The farm never
	// holds module pointers across jobs — content addressing is the only
	// sharing mechanism, exactly as it would be across daemon restarts.
	Build func() (*rtl.Design, error)
	// Partition is the dotted instance path of the debug partition; empty
	// picks the first top-level instance whose module is instantiated
	// exactly once (falling back to the whole design).
	Partition string
	// Options are the toolchain options; SkipImage is forced on (farm
	// artifacts are bitstreams, not runnable images).
	Options toolchain.Options
}

// Attach says how a submit landed on its job.
type Attach int

const (
	// AttachNew started a fresh execution.
	AttachNew Attach = iota
	// AttachShared joined an identical execution already in flight
	// (single-flight dedup).
	AttachShared
	// AttachHit was served from a completed identical job.
	AttachHit
)

// AttachLine renders the submit acknowledgement of the compilesubmit
// handler, which serves the in-process and the remote REPL alike.
func AttachLine(id uint64, a Attach) string {
	switch a {
	case AttachShared:
		return fmt.Sprintf("job %d shared (identical compile in flight)", id)
	case AttachHit:
		return fmt.Sprintf("job %d cache hit", id)
	default:
		return fmt.Sprintf("job %d submitted", id)
	}
}

// State is a job's lifecycle state.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Progress is one job progress notification: a phase entry or a terminal
// state. These feed the v3 "compile" stream.
type Progress struct {
	Job   uint64
	Phase string // vti.Phase* while running; the State string at the end
}

// JobStatus is an immutable snapshot of one job.
type JobStatus struct {
	ID          uint64
	Flow        string // "vti" (initial) or "recompile"
	Design      string
	Partition   string // dotted path; "" = whole design
	Tag         int    // recompile edit tag
	State       State
	Phase       string // current phase while running
	Refs        int
	Shared      int // extra submitters deduped onto this execution
	Hits        int // completed-job cache hits served
	Speculative bool
	Cells       int           // cells actually synthesized (0 = all checkpoints shared)
	Total       time.Duration // modeled end-to-end compile time
	Digest      string        // bitstream digest (full hex)
	Err         string
}

// Line renders the deterministic one-row status the compiles verb and
// CompileStatus responses print. Everything in it is content-derived
// (modeled time, not wall time), so local and remote transcripts match
// byte for byte.
func (s JobStatus) Line() string {
	part := s.Partition
	if part == "" {
		part = "top"
	}
	head := fmt.Sprintf("#%d %s %s part=%s", s.ID, s.Flow, s.Design, part)
	if s.Flow == FlowRecompile {
		head += fmt.Sprintf(" tag=%d", s.Tag)
	}
	if s.Speculative {
		head += " speculative"
	}
	switch s.State {
	case StateDone:
		head += fmt.Sprintf(" done total=%s cells=%d bits=%s", s.Total, s.Cells, shortDigest(s.Digest))
	case StateFailed:
		head += " failed: " + s.Err
	case StateRunning:
		head += " running:" + s.Phase
	default:
		head += " " + string(s.State)
	}
	if s.Hits > 0 {
		head += fmt.Sprintf(" hits=%d", s.Hits)
	}
	if s.Shared > 0 {
		head += fmt.Sprintf(" shared=%d", s.Shared)
	}
	return head
}

func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	if d == "" {
		return "-"
	}
	return d
}

// Flows.
const (
	FlowInitial   = "vti"
	FlowRecompile = "recompile"
)

// Job is one compile execution. All exported access is through
// snapshots (Status), Wait and Result.
type Job struct {
	id        uint64
	f         *Farm
	key       string
	flow      string
	design    string
	partition string
	tag       int

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu          sync.Mutex
	state       State
	phase       string
	refs        int
	shared      int
	hits        int
	speculative bool
	err         error
	res         *vti.Result
	subs        map[int]chan Progress
	nextSub     int

	// digest is the result's bitstream digest, hashed on the first
	// Status after the job is done and outside mu (see bitsDigest).
	digestOnce sync.Once
	digest     string

	// used is the farm's use clock at the job's creation or latest cache
	// hit or share, under the farm's lock: the eviction order.
	used uint64
}

// ID returns the farm-assigned job id.
func (j *Job) ID() uint64 { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job is terminal (returning its error) or ctx
// ends (returning the context error).
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Result returns the completed compile, or nil before StateDone.
func (j *Job) Result() *vti.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res
}

// State returns the job's state. Unlike Status, it never hashes the
// result.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the job. On a finished job's first call it hashes the
// result's bitstream (BitstreamDigest).
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	s := JobStatus{
		ID: j.id, Flow: j.flow, Design: j.design, Partition: j.partition,
		Tag: j.tag, State: j.state, Phase: j.phase, Refs: j.refs,
		Shared: j.shared, Hits: j.hits, Speculative: j.speculative,
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	res := j.res
	j.mu.Unlock()
	if res != nil {
		s.Cells = res.Report.CellsSynthesized
		s.Total = res.Report.Total()
		s.Digest = j.bitsDigest(res)
	}
	return s
}

// bitsDigest returns the finished result's bitstream digest, hashing every
// cell once per job. It runs outside mu, so hashing blocks neither Wait
// nor the job's other readers.
func (j *Job) bitsDigest(res *vti.Result) string {
	j.digestOnce.Do(func() { j.digest = res.BitstreamDigest() })
	return j.digest
}

// Subscribe registers a progress listener: a buffered channel receiving
// phase entries and the terminal state (slow listeners drop, never
// block the compile). The returned func unsubscribes.
func (j *Job) Subscribe() (<-chan Progress, func()) {
	ch := make(chan Progress, 16)
	j.mu.Lock()
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	// Late subscribers immediately learn where the job already is.
	cur := j.phase
	if j.state != StateRunning && j.state != StateQueued {
		cur = string(j.state)
	}
	j.mu.Unlock()
	if cur != "" {
		ch <- Progress{Job: j.id, Phase: cur}
	}
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, id)
		j.mu.Unlock()
	}
}

// publish fans one progress event out to subscribers. Callers hold j.mu.
func (j *Job) publishLocked(phase string) {
	for _, ch := range j.subs {
		select {
		case ch <- Progress{Job: j.id, Phase: phase}:
		default:
		}
	}
}

// enterPhase is the job's OnPhase callback.
func (j *Job) enterPhase(phase string) {
	if hook := j.f.cfg.PhaseHook; hook != nil {
		hook(j.id, phase)
	}
	j.mu.Lock()
	j.phase = phase
	j.publishLocked(phase)
	j.mu.Unlock()
}

// Stats are the farm-wide counters.
type Stats struct {
	Submits      int64
	Shared       int64 // submits deduped onto a running execution
	CacheHits    int64 // submits served from a completed job
	Cancels      int64 // jobs whose context was cancelled
	Speculations int64 // speculative recompiles launched
	Store        synth.StoreStats
}

// MaxTerminalJobs bounds the finished, failed and cancelled jobs a farm
// keeps, with their results (about 5 MB per 256-core recompile): well
// above the 16 submits of one zperf epoch. Beyond it the least recently
// used terminal job is forgotten; its id then answers as unknown, and
// its next submit compiles afresh. Queued and running jobs are never
// forgotten.
const MaxTerminalJobs = 64

// Farm is the compile service.
type Farm struct {
	cfg   Config
	store synth.Store

	mu     sync.Mutex
	jobs   map[uint64]*Job
	byKey  map[string]*Job
	nextID uint64
	uses   uint64 // use clock; see Job.used

	submits, sharedN, cacheHits, cancels, speculations int64
}

// New creates a farm with its own shared checkpoint store.
func New(cfg Config) *Farm {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	store := cfg.Store
	if store == nil {
		store = synth.NewMemStore(cfg.StoreCap)
	}
	return &Farm{
		cfg:   cfg,
		store: store,
		jobs:  make(map[uint64]*Job),
		byKey: make(map[string]*Job),
	}
}

// Store exposes the shared checkpoint store (counters for status lines).
func (f *Farm) Store() synth.Store { return f.store }

// Stats snapshots the farm counters.
func (f *Farm) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Submits: f.submits, Shared: f.sharedN, CacheHits: f.cacheHits,
		Cancels: f.cancels, Speculations: f.speculations,
		Store: f.store.Stats(),
	}
}

// Compile submits the initial VTI compile of a design. The caller holds
// one reference on the returned job until Release (or Cancel).
func (f *Farm) Compile(spec Spec) (*Job, Attach, error) {
	return f.submit(spec, FlowInitial, 0, false)
}

// Recompile submits the tag-th canonical debug edit of the design's
// partition. The base compile is ensured first (itself subject to
// dedup and cache hits), then only the edited partition recompiles —
// resident, so no startup charge.
func (f *Farm) Recompile(spec Spec, tag int) (*Job, Attach, error) {
	if tag <= 0 {
		tag = 1
	}
	return f.submit(spec, FlowRecompile, tag, false)
}

// Job looks up a job by id.
func (f *Farm) Job(id uint64) (*Job, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	return j, ok
}

// Jobs returns every job, sorted by id.
func (f *Farm) Jobs() []*Job {
	f.mu.Lock()
	out := make([]*Job, 0, len(f.jobs))
	for _, j := range f.jobs {
		out = append(out, j)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}

// StatusLines renders one Line per job, sorted by id — the compiles verb.
func (f *Farm) StatusLines() []string {
	var lines []string
	for _, j := range f.Jobs() {
		lines = append(lines, j.Status().Line())
	}
	return lines
}

// Release drops one reference from a job. When the last reference goes
// — every submitter cancelled or disconnected — a still-running job's
// context is cancelled and its workers stop at the next phase gate.
// Releasing a terminal job is a no-op. Reports whether this release
// cancelled the execution.
func (f *Farm) Release(id uint64) bool {
	f.mu.Lock()
	j, ok := f.jobs[id]
	f.mu.Unlock()
	if !ok {
		return false
	}
	j.mu.Lock()
	done := terminal(j.state)
	if !done && j.refs > 0 {
		j.refs--
	}
	last := !done && j.refs == 0 && !j.speculative
	j.mu.Unlock()
	if last {
		f.mu.Lock()
		f.cancels++
		f.mu.Unlock()
		j.cancel()
		f.cfg.Logf("farm: job %d cancelled (last reference released)", id)
	}
	return last
}

// CancelLine applies Release and renders the deterministic reply the
// compilecancel op prints.
func (f *Farm) CancelLine(id uint64) (string, error) {
	j, ok := f.Job(id)
	if !ok {
		return "", fmt.Errorf("no compile job %d", id)
	}
	if st := j.State(); terminal(st) {
		return fmt.Sprintf("job %d already %s", id, st), nil
	}
	if f.Release(id) {
		return fmt.Sprintf("job %d cancelling", id), nil
	}
	return fmt.Sprintf("job %d released (still referenced)", id), nil
}

// request is one submit's compile: the design as built, its debug
// partition path and options, and the design's content digest, which
// keys the job.
type request struct {
	spec   Spec
	design *rtl.Design
	path   string
	opts   toolchain.Options
	digest synth.Digest
}

// key returns the job key of the request's compile in a flow.
func (r *request) key(flow string, tag int) string {
	return fmt.Sprintf("%s|%s|%s|%d|%s", flow, r.digest, r.path, tag, r.opts.Device.Name)
}

// submit is the single-flight front door for both flows.
func (f *Farm) submit(spec Spec, flow string, tag int, speculative bool) (*Job, Attach, error) {
	if spec.Build == nil {
		return nil, AttachNew, fmt.Errorf("farm: spec %q has no Build", spec.Design)
	}
	d, err := spec.Build()
	if err != nil {
		return nil, AttachNew, fmt.Errorf("farm: build %s: %w", spec.Design, err)
	}
	path := partitionPath(spec, d)
	req := &request{
		spec: spec, design: d, path: path,
		opts: compileOpts(spec, path), digest: synth.DesignDigest(d),
	}
	j, a := f.attach(req, flow, tag, speculative)
	return j, a, nil
}

// attach lands a request's compile in a flow on its job: one in flight
// or done under the same key, else a new job that runs the request's
// design.
func (f *Farm) attach(req *request, flow string, tag int, speculative bool) (*Job, Attach) {
	key := req.key(flow, tag)
	f.mu.Lock()
	f.submits++
	f.uses++
	if j := f.byKey[key]; j != nil {
		j.used = f.uses
		j.mu.Lock()
		switch j.state {
		case StateQueued, StateRunning:
			j.refs++
			j.shared++
			j.mu.Unlock()
			f.sharedN++
			f.mu.Unlock()
			return j, AttachShared
		case StateDone:
			j.hits++
			j.mu.Unlock()
			f.cacheHits++
			f.mu.Unlock()
			return j, AttachHit
		}
		// Failed or cancelled: fall through and run afresh.
		j.mu.Unlock()
	}
	f.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id: f.nextID, f: f, key: key, flow: flow, design: req.spec.Design,
		partition: req.path, tag: tag,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
		state: StateQueued, refs: 1, speculative: speculative,
		subs: make(map[int]chan Progress), used: f.uses,
	}
	if speculative {
		j.refs = 0
	}
	f.jobs[j.id] = j
	f.byKey[key] = j
	if speculative {
		f.speculations++
	}
	f.mu.Unlock()
	f.cfg.Logf("farm: job %d %s %s part=%s tag=%d", j.id, flow, req.spec.Design, req.path, tag)

	if speculative {
		// Speculation runs synchronously on the initial job's goroutine so
		// job numbering and store state stay deterministic.
		f.run(j, req)
	} else {
		go f.run(j, req)
	}
	return j, AttachNew
}

// run executes one job to a terminal state.
func (f *Farm) run(j *Job, req *request) {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()

	var res *vti.Result
	var err error
	switch j.flow {
	case FlowInitial:
		res, err = vti.CompileCtx(j.ctx, req.design, req.opts,
			vti.CompileOptions{Store: f.store, OnPhase: j.enterPhase})
	case FlowRecompile:
		res, err = f.runRecompile(j, req)
	default:
		err = fmt.Errorf("farm: unknown flow %q", j.flow)
	}
	f.finish(j, res, err)

	if j.flow == FlowInitial && err == nil && f.cfg.Speculate && !j.speculative {
		// Pre-warm the client's likely next request: edit tag 1 of the
		// partition they just compiled.
		if _, _, serr := f.submit(req.spec, FlowRecompile, 1, true); serr != nil {
			f.cfg.Logf("farm: speculative recompile after job %d: %v", j.id, serr)
		}
	}
}

// runRecompile ensures the base compile, then recompiles the canonical
// debug edit of the partition against it. The request's design is the
// unedited one, so its digest keys the base job too. Only this job holds
// that design, and the edit goes on it, unless the base must compile it
// afresh: then the edit goes on a second build.
func (f *Farm) runRecompile(j *Job, req *request) (*vti.Result, error) {
	base, a := f.attach(req, FlowInitial, 0, false)
	// The recompile's reference on the base cascades: cancelling the last
	// recompile holder releases the base too, stopping a still-running
	// initial compile nobody else wants.
	defer f.Release(base.id)
	edited := req.design
	if a == AttachNew {
		var err error
		if edited, err = req.spec.Build(); err != nil {
			return nil, fmt.Errorf("farm: build %s: %w", req.spec.Design, err)
		}
	}
	if err := base.Wait(j.ctx); err != nil {
		if j.ctx.Err() != nil {
			return nil, fmt.Errorf("farm: cancelled waiting for base compile: %w", j.ctx.Err())
		}
		return nil, fmt.Errorf("farm: base compile: %w", err)
	}
	if err := editDesign(edited, j.partition, j.tag); err != nil {
		return nil, err
	}
	// Resident: the farm's toolchain is already up, so the fixed startup
	// charge is amortized away — the daemon-side half of the ≥10× win.
	return base.Result().RecompileCtx(j.ctx, edited, PartitionName,
		vti.RecompileOptions{Resident: true, OnPhase: j.enterPhase})
}

// finish moves the job to its terminal state and notifies waiters.
func (f *Farm) finish(j *Job, res *vti.Result, err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = StateDone
		j.res = res
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	j.phase = ""
	state := j.state
	j.publishLocked(string(state))
	j.mu.Unlock()
	// Evict before waking waiters, so a waiter sees the table settled.
	f.evict()
	close(j.done)
	f.cfg.Logf("farm: job %d %s", j.id, state)
}

// terminal reports whether a job in state s has finished.
func terminal(s State) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// evict forgets the least recently used terminal jobs beyond
// MaxTerminalJobs. A key stays mapped to a job that replaced an evicted
// one (a failed compile run afresh).
func (f *Farm) evict() {
	f.mu.Lock()
	defer f.mu.Unlock()
	var done []*Job
	for _, j := range f.jobs {
		if terminal(j.State()) {
			done = append(done, j)
		}
	}
	if len(done) <= MaxTerminalJobs {
		return
	}
	sort.Slice(done, func(a, b int) bool { return done[a].used < done[b].used })
	for _, j := range done[:len(done)-MaxTerminalJobs] {
		delete(f.jobs, j.id)
		if f.byKey[j.key] == j {
			delete(f.byKey, j.key)
		}
	}
}

// compileOpts builds the toolchain options for a spec: the declared
// partition, image elaboration off.
func compileOpts(spec Spec, path string) toolchain.Options {
	opts := spec.Options
	opts.SkipImage = true
	opts.Partitions = []place.PartitionSpec{{Name: PartitionName, Paths: []string{path}}}
	return opts.WithDefaults()
}

// partitionPath resolves the debug partition: the explicit spec path, or
// the first top-level instance whose module appears exactly once in the
// design (editing a multiply-instantiated module would change cells
// outside the partition), or the whole design.
func partitionPath(spec Spec, d *rtl.Design) string {
	if spec.Partition != "" {
		return spec.Partition
	}
	counts := make(map[*rtl.Module]int)
	var walk func(m *rtl.Module)
	walk = func(m *rtl.Module) {
		for _, inst := range m.Instances {
			counts[inst.Module]++
			walk(inst.Module)
		}
	}
	walk(d.Top)
	for _, inst := range d.Top.Instances {
		if counts[inst.Module] == 1 {
			return inst.Name
		}
	}
	return ""
}

// ApplyEdit applies the canonical tag-th debug edit to a design, exactly
// as the farm does before a recompile. Exported for the toolchain
// self-checker, which must reproduce the edit out-of-band to build its
// cold reference compile and behavioral metadata.
func ApplyEdit(d *rtl.Design, path string, tag int) error {
	return editDesign(d, path, tag)
}

// ResolvePartition returns the debug-partition instance path a spec
// resolves to for the given built design — the same resolution submit
// performs.
func ResolvePartition(spec Spec, d *rtl.Design) string {
	return partitionPath(spec, d)
}

// editDesign applies the canonical tag-th debug edit in place: tag extra
// 8-bit probe registers added to the partition's module — the "minor
// changes to expose signals for debugging" of §5.2, made deterministic
// so independently parsed copies of the same edit digest identically.
func editDesign(d *rtl.Design, path string, tag int) error {
	m, err := vti.ModuleAt(d, path)
	if err != nil {
		return fmt.Errorf("farm: edit: %w", err)
	}
	clock := "clk"
	if len(m.Registers) > 0 {
		clock = m.Registers[0].Clock
	}
	for k := 0; k < tag; k++ {
		probe := m.Reg(fmt.Sprintf("farm_probe%d", k), 8, clock, 0)
		m.SetNext(probe, rtl.C(uint64(k+1)&0xff, 8))
	}
	return nil
}

// CheckBitIdentity is the differential oracle behind zcheck's compile
// op: it compiles the tag-th edit of the design warm (initial VTI
// compile populating a fresh store, then a resident recompile of the
// edit) and cold (from-scratch monolithic compile of the same edited
// design), returning both bitstream digests. The two must be equal —
// cache-served recompiles stand in for full compiles bit for bit.
func CheckBitIdentity(ctx context.Context, spec Spec, tag int) (cold, warm string, err error) {
	if tag <= 0 {
		tag = 1
	}
	d, err := spec.Build()
	if err != nil {
		return "", "", fmt.Errorf("farm: build %s: %w", spec.Design, err)
	}
	path := partitionPath(spec, d)
	opts := compileOpts(spec, path)

	base, err := vti.CompileCtx(ctx, d, opts, vti.CompileOptions{})
	if err != nil {
		return "", "", fmt.Errorf("farm: base compile: %w", err)
	}
	editedWarm, err := spec.Build()
	if err != nil {
		return "", "", err
	}
	if err := editDesign(editedWarm, path, tag); err != nil {
		return "", "", err
	}
	warmRes, err := base.RecompileCtx(ctx, editedWarm, PartitionName,
		vti.RecompileOptions{Resident: true})
	if err != nil {
		return "", "", fmt.Errorf("farm: warm recompile: %w", err)
	}

	editedCold, err := spec.Build()
	if err != nil {
		return "", "", err
	}
	if err := editDesign(editedCold, path, tag); err != nil {
		return "", "", err
	}
	coldRes, err := toolchain.CompileCtx(ctx, editedCold, opts)
	if err != nil {
		return "", "", fmt.Errorf("farm: cold compile: %w", err)
	}
	return coldRes.BitstreamDigest(), warmRes.BitstreamDigest(), nil
}
