package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"zoomie/internal/farm"
	"zoomie/internal/rtl"
	"zoomie/internal/wire"
)

// The compile-farm ops are defined here once. They are connection-level,
// not session ops: a daemon serves them inline on the calling
// connection's read loop against its shared farm, and Local.Do serves
// them against an in-process farm of its own. Either way the same
// handler answers, so the in-process REPL, the remote REPL and every
// zcheck leg compile through one path.

// compileSpec resolves a catalog design into a compile-farm spec. The
// spec rebuilds the design from the catalog entry on every use — the
// farm shares content, never module pointers, so a spec built here
// digests identically to one built by any other client of the same
// catalog — and leaves the partition to the farm's auto-detection.
func compileSpec(design string) (farm.Spec, error) {
	entry, ok := Catalog()[design]
	if !ok {
		return farm.Spec{}, fmt.Errorf("unknown design %q (have: %v)", design, CatalogNames())
	}
	return farm.Spec{
		Design: design,
		Build: func() (*rtl.Design, error) {
			d, _ := entry.Build()
			return d, nil
		},
	}, nil
}

// handleCompile serves one compile op against farm f for a client whose
// farm references are held, compiling only designs the allowlist serves
// (an empty list serves the whole catalog). Submits return immediately —
// the farm compiles on its own goroutines — and only the synchronous
// "check" mode occupies the caller, under ctx.
func handleCompile(ctx context.Context, f *farm.Farm, held *jobRefs, allow []string, req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	switch req.Op {
	case wire.OpCompileSubmit:
		if req.Design == "" {
			resp.Err = wire.Errf(wire.CodeBadRequest, "compilesubmit needs a design")
			return resp
		}
		if !allowed(allow, req.Design) {
			resp.Err = wire.Errf(wire.CodeForbidden, "design %q not served (allowlist: %v)", req.Design, allow)
			return resp
		}
		spec, err := compileSpec(req.Design)
		if err != nil {
			resp.Err = wire.Errf(wire.CodeUnknownDesign, "%v", err)
			return resp
		}
		if req.Mode == "check" {
			cold, warm, err := farm.CheckBitIdentity(ctx, spec, req.N)
			if err != nil {
				resp.Err = compileErr(err)
				return resp
			}
			resp.Lines = []string{cold, warm}
			resp.Ran = 1
			return resp
		}
		var job *farm.Job
		var att farm.Attach
		switch req.Mode {
		case "", "vti":
			job, att, err = f.Compile(spec)
		case "recompile":
			job, att, err = f.Recompile(spec, req.N)
		default:
			resp.Err = wire.Errf(wire.CodeBadRequest, "unknown compile mode %q (want vti, recompile or check)", req.Mode)
			return resp
		}
		if err != nil {
			resp.Err = compileErr(err)
			return resp
		}
		if att != farm.AttachHit {
			// New and shared attaches hold one farm reference each; the
			// client's held set remembers them so its end releases what it
			// still cares about. Cache hits hold nothing.
			held.add(job.ID())
		}
		st := job.Status()
		resp.Value = job.ID()
		resp.Lines = []string{farm.AttachLine(job.ID(), att)}
		if st.State.Terminal() {
			resp.Ran = 1
			resp.Lines = append(resp.Lines, st.Line())
		}
		return resp

	case wire.OpCompileStatus:
		if req.Value == 0 {
			resp.Lines = f.StatusLines()
			return resp
		}
		job, ok := f.Job(req.Value)
		if !ok {
			resp.Err = wire.Errf(wire.CodeOp, "no compile job %d", req.Value)
			return resp
		}
		st := job.Status()
		resp.Value = job.ID()
		resp.Lines = []string{st.Line()}
		if st.State.Terminal() {
			resp.Ran = 1
		}
		return resp

	case wire.OpCompileCancel:
		job, ok := f.Job(req.Value)
		if !ok {
			resp.Err = wire.Errf(wire.CodeOp, "no compile job %d", req.Value)
			return resp
		}
		if !job.State().Terminal() && !held.drop(req.Value) {
			resp.Err = wire.Errf(wire.CodeForbidden,
				"connection holds no reference on job %d", req.Value)
			return resp
		}
		line, err := f.CancelLine(req.Value)
		if err != nil {
			resp.Err = compileErr(err)
			return resp
		}
		resp.Value = req.Value
		resp.Lines = []string{line}
		return resp
	}
	resp.Err = wire.Errf(wire.CodeUnknownOp, "unknown op %q", req.Op)
	return resp
}

func compileErr(err error) *wire.Error {
	if errors.Is(err, context.Canceled) {
		return wire.Errf(wire.CodeCancelled, "%v", err)
	}
	return wire.Errf(wire.CodeOp, "%v", err)
}

// jobRefs counts, by job id, the farm references held on behalf of one
// client, a daemon connection or a Local, until that client ends.
type jobRefs struct {
	mu   sync.Mutex
	jobs map[uint64]int
}

// add records one held reference.
func (r *jobRefs) add(id uint64) {
	r.mu.Lock()
	if r.jobs == nil {
		r.jobs = make(map[uint64]int)
	}
	r.jobs[id]++
	r.mu.Unlock()
}

// drop forgets one held reference, reporting whether there was one to
// drop. The farm-side release is the caller's job.
func (r *jobRefs) drop(id uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.jobs[id] <= 0 {
		return false
	}
	r.jobs[id]--
	if r.jobs[id] == 0 {
		delete(r.jobs, id)
	}
	return true
}

// release drops every reference still held on f — the disconnect half of
// end-to-end cancellation: a client that vanishes mid-compile releases
// its claim, and a job nobody else wants stops at the next phase gate.
func (r *jobRefs) release(f *farm.Farm) {
	r.mu.Lock()
	jobs := r.jobs
	r.jobs = nil
	r.mu.Unlock()
	for id, n := range jobs {
		for i := 0; i < n; i++ {
			f.Release(id)
		}
	}
}
