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
	"zoomie/internal/farm"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// Target is the op surface a script executes against: one session op at
// a time through the daemon's op table — in-process through
// server.Local.Do, remotely through client.Session.Do — so the legs
// differ only in wire, server and transport, and the executor cannot
// tell which stack it is driving. That blindness is what makes the
// comparison a real oracle.
type Target interface {
	Do(ctx context.Context, req *wire.Request) (*wire.Response, error)
	// CompileCheck runs the compile farm's bit-identity oracle for the
	// session's design: the tag-th canonical debug edit compiled via the
	// warm shared-cache incremental path and via a cold monolithic
	// compile, both bitstream digests returned. All stacks must agree on
	// both digests — the compile pipeline is content-addressed, so the
	// digests are design-derived and survive the chaos transport intact.
	CompileCheck(tag int) (cold, warm string, err error)
	Close() error
}

// localTarget drives an in-process zoomie.Session through the op table —
// no server, no wire protocol, no faults — so the remote targets have an
// exact local reference.
type localTarget struct {
	*server.Local
	design string
}

// NewLocalTarget wraps an in-process session. design is the catalog name
// the session was built from; the compile-check op resolves its farm
// spec through the same catalog lookup the daemon uses.
func NewLocalTarget(s *zoomie.Session, design string) Target {
	return &localTarget{Local: server.NewLocal(s), design: design}
}

func (t *localTarget) CompileCheck(tag int) (string, string, error) {
	spec, err := server.CompileSpec(t.design)
	if err != nil {
		return "", "", err
	}
	return farm.CheckBitIdentity(context.Background(), spec, tag)
}

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
