// Package check is the deterministic differential and mutation checking
// harness: it generates random designs and random debug-session scripts,
// runs every script against three independent stacks — the in-process
// debug facade, a remote zoomied session, and a remote session debugged
// through a seeded fault injector — and requires the three to agree on
// every observable: peeked state, batched plans, pause transitions,
// snapshot shapes and error identity. Any disagreement is shrunk to a
// minimal script and saved as a seed-replayable artifact.
package check

import (
	"context"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// Target is the op surface a script executes against: one op at a time
// through the daemon's handlers — in-process through server.Local.Do,
// remotely through client.Session.Do — so the legs differ only in wire,
// server and transport, and the executor cannot tell which stack it is
// driving. That blindness is what makes the comparison a real oracle.
// The compile checks travel the same way: a Local serves the compile
// ops with the daemon's own handler.
type Target interface {
	Do(ctx context.Context, req *wire.Request) (*wire.Response, error)
	Close() error
}

// NewLocalTarget wraps an in-process session in a server.Local — no
// server, no wire protocol, no faults — so the remote targets have an
// exact local reference.
func NewLocalTarget(s *zoomie.Session) Target { return server.NewLocal(s) }

// remoteTarget drives a zoomied session over the wire protocol. The same
// adapter serves the clean and the chaos server — the fault injector is
// configured server-side, invisible here, exactly as it is to real
// clients.
type remoteTarget struct {
	*client.Session
}

// NewRemoteTarget wraps an attached client session.
func NewRemoteTarget(s *client.Session) Target { return remoteTarget{s} }

func (t remoteTarget) Close() error { return t.Detach() }
