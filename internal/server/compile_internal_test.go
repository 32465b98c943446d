package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"zoomie/internal/farm"
	"zoomie/internal/vti"
	"zoomie/internal/wire"
)

// TestDisconnectCancelsHeldCompile is the disconnect half of end-to-end
// cancellation: a client that dies mid-place releases its farm
// references, and a job with no other holder stops at the next phase
// gate. The client is a daemon connection that dies, or a Local that
// closes. The farm's phase hook holds the compile at place entry so the
// disconnect deterministically lands while the job is running.
func TestDisconnectCancelsHeldCompile(t *testing.T) {
	for _, holder := range []string{"connection", "local"} {
		t.Run(holder, func(t *testing.T) {
			gate := make(chan struct{})
			placed := make(chan struct{})
			var once sync.Once
			f := farm.New(farm.Config{PhaseHook: func(_ uint64, phase string) {
				if phase == vti.PhasePlace {
					once.Do(func() { close(placed) })
					<-gate
				}
			}})

			var do func(req *wire.Request) *wire.Response
			var die func()
			if holder == "connection" {
				srv := New(Config{})
				srv.farm = f
				p1, p2 := net.Pipe()
				defer p2.Close()
				c := newConn(srv.hub, p1)
				do = func(req *wire.Request) *wire.Response {
					return handleCompile(c.ctx, srv.farm, &c.jobs, nil, req)
				}
				// markDead releases the connection's job refs.
				die = c.markDead
			} else {
				zs, err := NewCatalogSession("counter", nil)
				if err != nil {
					t.Fatal(err)
				}
				l := NewLocal(zs)
				l.farm = f
				do = func(req *wire.Request) *wire.Response {
					resp, _ := l.Do(context.Background(), req)
					return resp
				}
				// Close releases the Local's job refs.
				die = func() { l.Close() }
			}

			resp := do(&wire.Request{ID: 1, Op: wire.OpCompileSubmit, Design: "counter"})
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			job, ok := f.Job(resp.Value)
			if !ok {
				t.Fatalf("no job %d", resp.Value)
			}
			<-placed

			// The client dies mid-place.
			die()
			close(gate)

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := job.Wait(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("job err = %v, want context.Canceled", err)
			}
			if st := job.Status().State; st != farm.StateCancelled {
				t.Errorf("state = %s, want cancelled", st)
			}
		})
	}
}

// TestCancelOpRequiresReference: a connection that attached via cache
// hit holds no reference and cannot cancel someone else's running job.
func TestCancelOpRequiresReference(t *testing.T) {
	srv := New(Config{})
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	srv.farm = farm.New(farm.Config{PhaseHook: func(_ uint64, phase string) {
		if phase == vti.PhaseSynth {
			once.Do(func() { close(started) })
			<-gate
		}
	}})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()

	p1, _ := net.Pipe()
	holder := newConn(srv.hub, p1)
	p3, _ := net.Pipe()
	bystander := newConn(srv.hub, p3)

	resp := handleCompile(holder.ctx, srv.farm, &holder.jobs, nil, &wire.Request{ID: 1, Op: wire.OpCompileSubmit, Design: "counter"})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	<-started

	deny := handleCompile(bystander.ctx, srv.farm, &bystander.jobs, nil, &wire.Request{ID: 2, Op: wire.OpCompileCancel, Value: resp.Value})
	if deny.Err == nil || deny.Err.Code != wire.CodeForbidden {
		t.Fatalf("bystander cancel = %+v, want %s", deny.Err, wire.CodeForbidden)
	}

	allow := handleCompile(holder.ctx, srv.farm, &holder.jobs, nil, &wire.Request{ID: 3, Op: wire.OpCompileCancel, Value: resp.Value})
	if allow.Err != nil {
		t.Fatalf("holder cancel: %v", allow.Err)
	}
	openGate() // release the held phase; the next gate observes the cancel
	job, _ := srv.farm.Job(resp.Value)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("job err = %v, want context.Canceled", err)
	}
}
