package server

import (
	"context"
	"errors"
	"fmt"

	"zoomie/internal/farm"
	"zoomie/internal/rtl"
	"zoomie/internal/wire"
)

// CompileSpec resolves a catalog design into a compile-farm spec. The
// spec rebuilds the design from the catalog entry on every use — the
// farm shares content, never module pointers, so a spec built here
// digests identically to one built by any other client of the same
// catalog — and leaves the partition to the farm's auto-detection.
func CompileSpec(design string) (farm.Spec, error) {
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

// handleCompile serves the compile-farm ops. Like attach, it runs on the
// calling connection's read loop: submits return immediately (the farm
// compiles on its own goroutines), and only the synchronous "check" mode
// occupies the loop — stalling exactly the client that asked for it.
func (s *Server) handleCompile(c *Conn, req *wire.Request) *wire.Response {
	resp := &wire.Response{ID: req.ID}
	switch req.Op {
	case wire.OpCompileSubmit:
		if req.Design == "" {
			resp.Err = wire.Errf(wire.CodeBadRequest, "compilesubmit needs a design")
			return resp
		}
		if !s.allowed(req.Design) {
			resp.Err = wire.Errf(wire.CodeForbidden, "design %q not served (allowlist: %v)", req.Design, s.cfg.Allow)
			return resp
		}
		spec, err := CompileSpec(req.Design)
		if err != nil {
			resp.Err = wire.Errf(wire.CodeUnknownDesign, "%v", err)
			return resp
		}
		if req.Mode == "check" {
			cold, warm, err := farm.CheckBitIdentity(c.ctx, spec, req.N)
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
			job, att, err = s.farm.Compile(spec)
		case "recompile":
			job, att, err = s.farm.Recompile(spec, req.N)
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
			// connection remembers them so a disconnect releases what this
			// client still cares about. Cache hits hold nothing.
			c.addJob(job.ID())
		}
		st := job.Status()
		resp.Value = job.ID()
		resp.Lines = []string{farm.AttachLine(job.ID(), att)}
		if terminalState(st.State) {
			resp.Ran = 1
			resp.Lines = append(resp.Lines, st.Line())
		}
		return resp

	case wire.OpCompileStatus:
		if req.Value == 0 {
			resp.Lines = s.farm.StatusLines()
			return resp
		}
		job, ok := s.farm.Job(req.Value)
		if !ok {
			resp.Err = wire.Errf(wire.CodeOp, "no compile job %d", req.Value)
			return resp
		}
		st := job.Status()
		resp.Value = job.ID()
		resp.Lines = []string{st.Line()}
		if terminalState(st.State) {
			resp.Ran = 1
		}
		return resp

	case wire.OpCompileCancel:
		job, ok := s.farm.Job(req.Value)
		if !ok {
			resp.Err = wire.Errf(wire.CodeOp, "no compile job %d", req.Value)
			return resp
		}
		if !terminalState(job.Status().State) && !c.dropJobRef(req.Value) {
			resp.Err = wire.Errf(wire.CodeForbidden,
				"connection holds no reference on job %d", req.Value)
			return resp
		}
		line, err := s.farm.CancelLine(req.Value)
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

func terminalState(s farm.State) bool {
	return s == farm.StateDone || s == farm.StateFailed || s == farm.StateCancelled
}

func compileErr(err error) *wire.Error {
	if errors.Is(err, context.Canceled) {
		return wire.Errf(wire.CodeCancelled, "%v", err)
	}
	return wire.Errf(wire.CodeOp, "%v", err)
}

// addJob records one farm reference held on behalf of this connection.
func (c *Conn) addJob(id uint64) {
	c.jobMu.Lock()
	if c.jobs == nil {
		c.jobs = make(map[uint64]int)
	}
	c.jobs[id]++
	c.jobMu.Unlock()
}

// dropJobRef forgets one held reference, reporting whether there was one
// to drop. The farm-side release is the caller's job.
func (c *Conn) dropJobRef(id uint64) bool {
	c.jobMu.Lock()
	defer c.jobMu.Unlock()
	if c.jobs[id] <= 0 {
		return false
	}
	c.jobs[id]--
	if c.jobs[id] == 0 {
		delete(c.jobs, id)
	}
	return true
}

// releaseJobs drops every farm reference a dying connection still holds
// — the disconnect half of end-to-end cancellation: a client that
// vanishes mid-compile releases its claim, and a job nobody else wants
// stops at the next phase gate.
func (s *Server) releaseJobs(c *Conn) {
	c.jobMu.Lock()
	jobs := c.jobs
	c.jobs = nil
	c.jobMu.Unlock()
	for id, n := range jobs {
		for i := 0; i < n; i++ {
			s.farm.Release(id)
		}
	}
}
