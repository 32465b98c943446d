package farm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zoomie/internal/rtl"
	"zoomie/internal/vti"
)

// buildFarmDesign builds the test fixture: a top module with one uniquely
// instantiated core (the auto-detected debug partition), two instances of
// a shared pad module (must never be edited), and static top-level logic.
func buildFarmDesign() *rtl.Design {
	pad := rtl.NewModule("farm_pad")
	pq := pad.Output("q", 8)
	pr := pad.Reg("r", 8, "clk", 0)
	pad.SetNext(pr, rtl.Add(rtl.S(pr), rtl.C(1, 8)))
	pad.Connect(pq, rtl.S(pr))

	core := rtl.NewModule("farm_core")
	cq := core.Output("q", 32)
	acc := core.Reg("acc", 32, "clk", 0)
	core.SetNext(acc, rtl.Add(rtl.S(acc), rtl.C(3, 32)))
	core.Connect(cq, rtl.S(acc))

	top := rtl.NewModule("farm_top")
	out := top.Output("checksum", 32)
	cw := top.Wire("core_q", 32)
	top.Instantiate("u_core", core).ConnectOutput("q", cw)
	p0 := top.Wire("pad0_q", 8)
	top.Instantiate("u_pad0", pad).ConnectOutput("q", p0)
	p1 := top.Wire("pad1_q", 8)
	top.Instantiate("u_pad1", pad).ConnectOutput("q", p1)
	sum := rtl.Xor(rtl.S(cw), rtl.ZeroExt(rtl.S(p0), 32))
	sum = rtl.Xor(sum, rtl.ZeroExt(rtl.S(p1), 32))
	csum := top.Reg("checksum_r", 32, "clk", 0)
	top.SetNext(csum, sum)
	top.Connect(out, rtl.S(csum))
	return rtl.NewDesign("farm_fixture", top)
}

func fixtureSpec() Spec {
	return Spec{
		Design: "fixture",
		Build:  func() (*rtl.Design, error) { return buildFarmDesign(), nil },
	}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %d: %v", j.ID(), err)
	}
}

// TestAutoPartitionAndSingleFlight: an unspecified partition resolves to
// the uniquely instantiated top-level instance; a second identical submit
// while the first is in flight shares its execution, and a third after
// completion is a cache hit.
func TestAutoPartitionAndSingleFlight(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	f := New(Config{PhaseHook: func(_ uint64, phase string) {
		if phase == vti.PhaseSynth {
			once.Do(func() { close(started) })
			<-gate
		}
	}})

	spec := fixtureSpec()
	jA, aA, err := f.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if aA != AttachNew {
		t.Fatalf("first submit attach = %v, want AttachNew", aA)
	}
	<-started
	jB, aB, err := f.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if aB != AttachShared || jB.ID() != jA.ID() {
		t.Fatalf("in-flight duplicate: attach %v job %d, want AttachShared on job %d",
			aB, jB.ID(), jA.ID())
	}
	close(gate)
	waitDone(t, jA)

	st := jA.Status()
	if st.Partition != "u_core" {
		t.Errorf("auto partition = %q, want u_core (unique top-level instance)", st.Partition)
	}
	if st.State != StateDone || st.Shared != 1 || st.Digest == "" {
		t.Errorf("status = %+v, want done, 1 shared, non-empty digest", st)
	}

	jC, aC, err := f.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if aC != AttachHit || jC.ID() != jA.ID() {
		t.Fatalf("post-completion duplicate: attach %v job %d, want AttachHit on job %d",
			aC, jC.ID(), jA.ID())
	}
	stats := f.Stats()
	if stats.Submits != 3 || stats.Shared != 1 || stats.CacheHits != 1 {
		t.Errorf("stats = %+v, want 3 submits, 1 shared, 1 hit", stats)
	}

	// A late subscriber immediately learns the terminal state.
	ch, off := jA.Subscribe()
	defer off()
	select {
	case p := <-ch:
		if p.Phase != string(StateDone) {
			t.Errorf("late subscription got %q, want %q", p.Phase, StateDone)
		}
	case <-time.After(time.Second):
		t.Error("late subscription got nothing")
	}
}

// TestRefcountedCancelStopsMidPlace: with two holders attached, releasing
// one keeps the compile alive; releasing the last cancels it, and workers
// stop at the next phase gate — route and timing never run. A fresh
// submit of the same design then re-runs from scratch.
func TestRefcountedCancelStopsMidPlace(t *testing.T) {
	gate := make(chan struct{})
	placed := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var phases []string
	f := New(Config{PhaseHook: func(_ uint64, phase string) {
		mu.Lock()
		phases = append(phases, phase)
		mu.Unlock()
		if phase == vti.PhasePlace {
			once.Do(func() { close(placed) })
			<-gate
		}
	}})

	spec := fixtureSpec()
	j1, _, err := f.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-placed
	j2, a2, err := f.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != AttachShared {
		t.Fatalf("attach = %v, want AttachShared", a2)
	}
	if f.Release(j1.ID()) {
		t.Fatal("first release cancelled a job that still had a holder")
	}
	if !f.Release(j2.ID()) {
		t.Fatal("last release did not cancel the job")
	}
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j1.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job err = %v, want context.Canceled", err)
	}
	if st := j1.Status().State; st != StateCancelled {
		t.Errorf("state = %s, want cancelled", st)
	}
	mu.Lock()
	for _, p := range phases {
		if p == vti.PhaseRoute || p == vti.PhaseTiming || p == vti.PhaseBitgen {
			t.Errorf("phase %s ran after cancellation (phases %v)", p, phases)
		}
	}
	mu.Unlock()

	j3, a3, err := f.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a3 != AttachNew || j3.ID() == j1.ID() {
		t.Fatalf("resubmit after cancel: attach %v job %d, want a fresh job", a3, j3.ID())
	}
	waitDone(t, j3)
	if f.Stats().Cancels != 1 {
		t.Errorf("cancels = %d, want 1", f.Stats().Cancels)
	}
}

// TestRecompileBitIdentityAndCacheHit: a recompile job ensures its base
// compile, produces a bitstream byte-identical to a cold from-scratch
// compile of the same edited design, and an identical resubmit is served
// from cache.
func TestRecompileBitIdentityAndCacheHit(t *testing.T) {
	f := New(Config{})
	spec := fixtureSpec()
	j, a, err := f.Recompile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != AttachNew {
		t.Fatalf("attach = %v, want AttachNew", a)
	}
	waitDone(t, j)

	jobs := f.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d, want 2 (recompile + its base compile)", len(jobs))
	}
	for _, other := range jobs {
		if other.ID() != j.ID() && other.Status().Flow != FlowInitial {
			t.Errorf("companion job flow = %s, want %s", other.Status().Flow, FlowInitial)
		}
	}

	// Concurrent readers all see the digest the job hashes once.
	sts := make(chan JobStatus, 4)
	for i := 0; i < cap(sts); i++ {
		go func() { sts <- j.Status() }()
	}
	st := <-sts
	for i := 1; i < cap(sts); i++ {
		if other := <-sts; other.Digest != st.Digest {
			t.Errorf("concurrent status digests %s and %s differ", other.Digest, st.Digest)
		}
	}
	if !strings.Contains(st.Line(), "recompile") || !strings.Contains(st.Line(), "tag=1") {
		t.Errorf("status line %q missing flow/tag", st.Line())
	}

	cold, warm, err := CheckBitIdentity(context.Background(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cold != warm {
		t.Errorf("warm recompile bitstream differs from cold compile: %s vs %s", warm, cold)
	}
	if st.Digest != cold {
		t.Errorf("farm job digest %s differs from cold reference %s", st.Digest, cold)
	}

	j2, a2, err := f.Recompile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a2 != AttachHit || j2.ID() != j.ID() {
		t.Fatalf("identical recompile: attach %v job %d, want AttachHit on job %d",
			a2, j2.ID(), j.ID())
	}
}

// TestRecompileBuildsOnce: a recompile whose base is done builds its
// design once, for its job key, and edits that copy; one whose base must
// compile afresh hands that copy to the base and builds a second to
// edit. Either way the recompile serves the bits of a cold compile.
func TestRecompileBuildsOnce(t *testing.T) {
	var builds atomic.Int64
	spec := fixtureSpec()
	spec.Build = func() (*rtl.Design, error) {
		builds.Add(1)
		return buildFarmDesign(), nil
	}
	f := New(Config{})
	for _, tc := range []struct {
		tag, builds int64
	}{
		{1, 2}, // the base compiles afresh
		{2, 1}, // the base is done
	} {
		builds.Store(0)
		j, _, err := f.Recompile(spec, int(tc.tag))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if got := builds.Load(); got != tc.builds {
			t.Errorf("recompile of tag %d built the design %d times, want %d", tc.tag, got, tc.builds)
		}
		cold, _, err := CheckBitIdentity(context.Background(), fixtureSpec(), int(tc.tag))
		if err != nil {
			t.Fatal(err)
		}
		if got := j.Status().Digest; got != cold {
			t.Errorf("recompile of tag %d: digest %s, cold compile %s", tc.tag, got, cold)
		}
	}
}

// TestJobsHeldBySubmitters: jobs come only from Compile, Recompile and a
// recompile's attach of its base, and at every phase entry every queued
// or running job holds at least one reference.
func TestJobsHeldBySubmitters(t *testing.T) {
	var f *Farm
	var mu sync.Mutex
	var unheld []string
	f = New(Config{PhaseHook: func(id uint64, phase string) {
		for _, j := range f.Jobs() {
			j.mu.Lock()
			if !j.state.Terminal() && j.refs < 1 {
				mu.Lock()
				unheld = append(unheld, fmt.Sprintf("job %d %s with %d refs at job %d's %s",
					j.id, j.state, j.refs, id, phase))
				mu.Unlock()
			}
			j.mu.Unlock()
		}
	}})
	spec := fixtureSpec()
	started := map[uint64]bool{} // jobs a submit started
	submit := func(j *Job, a Attach, err error) Attach {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		started[j.ID()] = started[j.ID()] || a == AttachNew
		waitDone(t, j)
		return a
	}

	submit(f.Recompile(spec, 1)) // job 1, whose base attach starts job 2
	if a := submit(f.Compile(spec)); a != AttachHit {
		t.Errorf("compile after a recompile of it: attach %v, want a cache hit on the base", a)
	}
	submit(f.Recompile(spec, 2)) // job 3
	if a := submit(f.Recompile(spec, 3)); a != AttachNew {
		t.Errorf("recompile of a new edit: attach %v, want a new job", a)
	}

	want := map[uint64]string{1: "recompile tag 1", 2: "vti tag 0", 3: "recompile tag 2", 4: "recompile tag 3"}
	jobs := f.Jobs()
	if len(jobs) != len(want) {
		t.Errorf("%d jobs, want %d", len(jobs), len(want))
	}
	for _, j := range jobs {
		st := j.Status()
		if got := fmt.Sprintf("%s tag %d", st.Flow, st.Tag); got != want[j.ID()] {
			t.Errorf("job %d is a %s, want %s", j.ID(), got, want[j.ID()])
		}
		if base := j.ID() == 2; started[j.ID()] == base {
			t.Errorf("job %d started by a submit: %v; only the base, job 2, is not", j.ID(), started[j.ID()])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, u := range unheld {
		t.Error(u)
	}
}

// TestCancelLine covers the rendered cancel replies and bad-id errors.
// Cancelling a done job reports it done without hashing its bitstream.
func TestCancelLine(t *testing.T) {
	f := New(Config{})
	spec := fixtureSpec()
	j, _, err := f.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	line, err := f.CancelLine(j.ID())
	if err != nil || !strings.Contains(line, "already done") {
		t.Errorf("cancel of done job: %q, %v", line, err)
	}
	if j.digest != "" {
		t.Error("cancelling a done job hashed its bitstream")
	}
	if _, err := f.CancelLine(999); err == nil {
		t.Error("cancel of unknown job did not error")
	}
	if lines := f.StatusLines(); len(lines) != 1 || !strings.HasPrefix(lines[0], "#1 vti fixture") {
		t.Errorf("status lines = %v", lines)
	}
}

// TestTerminalJobsBounded runs more distinct recompiles than the farm
// keeps terminal jobs. Afterwards at most MaxTerminalJobs terminal jobs
// remain, the base compile — looked up by every recompile — is still a
// cache hit, and the least recently used tag, evicted, is unknown to
// status and cancel and recompiles afresh to the same digest.
func TestTerminalJobsBounded(t *testing.T) {
	f := New(Config{})
	spec := fixtureSpec()
	var first *Job
	var digest string
	for tag := 1; tag <= MaxTerminalJobs+8; tag++ {
		j, a, err := f.Recompile(spec, tag)
		if err != nil {
			t.Fatal(err)
		}
		if a != AttachNew {
			t.Fatalf("recompile of tag %d: attach %v, want AttachNew", tag, a)
		}
		waitDone(t, j)
		if tag == 1 {
			first, digest = j, j.Status().Digest
		}
	}

	terminal := 0
	for _, j := range f.Jobs() {
		switch j.Status().State {
		case StateDone, StateFailed, StateCancelled:
			terminal++
		}
	}
	if terminal > MaxTerminalJobs {
		t.Errorf("%d terminal jobs kept, want at most %d", terminal, MaxTerminalJobs)
	}

	if _, a, err := f.Compile(spec); err != nil || a != AttachHit {
		t.Errorf("base compile after the recompiles: attach %v, %v; want a cache hit", a, err)
	}

	id := first.ID()
	if _, ok := f.Job(id); ok {
		t.Fatalf("job %d (tag 1, least recently used) still kept", id)
	}
	want := fmt.Sprintf("no compile job %d", id)
	if _, err := f.CancelLine(id); err == nil || err.Error() != want {
		t.Errorf("cancel of evicted job %d: %v, want %q", id, err, want)
	}
	if f.Release(id) {
		t.Errorf("release of evicted job %d cancelled something", id)
	}
	j, a, err := f.Recompile(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != AttachNew || j.ID() == id {
		t.Fatalf("recompile of evicted tag 1: attach %v job %d, want AttachNew on a new job", a, j.ID())
	}
	waitDone(t, j)
	if got := j.Status().Digest; got != digest {
		t.Errorf("tag 1 recompiled afresh to digest %s, first to %s", got, digest)
	}
}
