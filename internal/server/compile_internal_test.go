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
// gate. The farm's phase hook holds the compile at place entry so the
// disconnect deterministically lands while the job is running.
func TestDisconnectCancelsHeldCompile(t *testing.T) {
	srv := New(Config{})
	gate := make(chan struct{})
	placed := make(chan struct{})
	var once sync.Once
	srv.farm = farm.New(farm.Config{PhaseHook: func(_ uint64, phase string) {
		if phase == vti.PhasePlace {
			once.Do(func() { close(placed) })
			<-gate
		}
	}})

	p1, p2 := net.Pipe()
	defer p2.Close()
	c := newConn(srv.hub, p1)

	resp := srv.handleCompile(c, &wire.Request{ID: 1, Op: wire.OpCompileSubmit, Design: "counter"})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	job, ok := srv.farm.Job(resp.Value)
	if !ok {
		t.Fatalf("no job %d", resp.Value)
	}
	<-placed

	// The connection dies mid-place; markDead releases its job refs.
	c.markDead()
	close(gate)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := job.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("job err = %v, want context.Canceled", err)
	}
	if st := job.Status().State; st != farm.StateCancelled {
		t.Errorf("state = %s, want cancelled", st)
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

	resp := srv.handleCompile(holder, &wire.Request{ID: 1, Op: wire.OpCompileSubmit, Design: "counter"})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	<-started

	deny := srv.handleCompile(bystander, &wire.Request{ID: 2, Op: wire.OpCompileCancel, Value: resp.Value})
	if deny.Err == nil || deny.Err.Code != wire.CodeForbidden {
		t.Fatalf("bystander cancel = %+v, want %s", deny.Err, wire.CodeForbidden)
	}

	allow := srv.handleCompile(holder, &wire.Request{ID: 3, Op: wire.OpCompileCancel, Value: resp.Value})
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
