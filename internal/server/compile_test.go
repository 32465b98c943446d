package server_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

func bitsOf(t *testing.T, line string) string {
	t.Helper()
	i := strings.Index(line, "bits=")
	if i < 0 {
		t.Fatalf("status line %q has no bits= digest", line)
	}
	rest := line[i+len("bits="):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// submit sends a compile submit of design in mode with edit tag N.
func submit(c *client.Client, design, mode string, tag int) (*wire.Response, error) {
	return c.Call(&wire.Request{Op: wire.OpCompileSubmit, Design: design, Mode: mode, N: tag})
}

// wait polls a compile job's status until it is terminal and returns its
// final status row.
func wait(ctx context.Context, c *client.Client, id uint64) (string, error) {
	for {
		resp, err := c.Call(&wire.Request{Op: wire.OpCompileStatus, Value: id})
		if err != nil {
			return "", err
		}
		if resp.Ran == 1 {
			return resp.Lines[0], nil
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestCompileFarmTwoClients is the compile-farm contract over the wire:
// client A compiles a design; client B submitting the identical design
// gets an instant cache hit whose bitstream digest matches A's.
func TestCompileFarmTwoClients(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 2})
	a, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	tA, err := submit(a, "counter", "vti", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tA.Lines) == 0 || !strings.Contains(tA.Lines[0], "submitted") {
		t.Fatalf("first submit ack = %v, want 'submitted'", tA.Lines)
	}
	lineA, err := wait(ctx, a, tA.Value)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lineA, "done") {
		t.Fatalf("final status %q, want done", lineA)
	}

	tB, err := submit(b, "counter", "vti", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tB.Ran != 1 || tB.Value != tA.Value {
		t.Fatalf("second client submit: done=%v id=%d, want terminal hit on job %d",
			tB.Ran == 1, tB.Value, tA.Value)
	}
	if !strings.Contains(tB.Lines[0], "cache hit") {
		t.Fatalf("second client ack = %q, want cache hit", tB.Lines[0])
	}
	if len(tB.Lines) < 2 || bitsOf(t, tB.Lines[1]) != bitsOf(t, lineA) {
		t.Fatalf("cache-hit digest differs: %v vs %q", tB.Lines, lineA)
	}

	list, err := b.Call(&wire.Request{Op: wire.OpCompileStatus})
	if err != nil || len(list.Lines) == 0 {
		t.Fatalf("job listing: %v, %v", list, err)
	}

	// The recompile flow spawns its base compile as a companion job; the
	// base here is itself a cache hit of A's initial compile checkpoints.
	tR, err := submit(b, "counter", "recompile", 1)
	if err != nil {
		t.Fatal(err)
	}
	lineR, err := wait(ctx, b, tR.Value)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lineR, "recompile") || !strings.Contains(lineR, "tag=1") {
		t.Fatalf("recompile status %q", lineR)
	}

	// Progress stream on a terminal job: the late subscription still
	// delivers the terminal state as a frame.
	st, err := b.OpenStream(wire.StreamCompile, tR.Value, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ev, ok := st.RecvCtx(ctx)
	if !ok || len(ev.Names) != 1 || ev.Names[0] != "done" {
		t.Fatalf("progress frame = %+v ok=%v, want terminal 'done'", ev, ok)
	}

	// The synchronous bit-identity oracle: warm == cold.
	check, err := submit(a, "counter", "check", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(check.Lines) != 2 || check.Lines[0] == "" || check.Lines[0] != check.Lines[1] {
		t.Fatalf("bit identity check: cold, warm = %q", check.Lines)
	}

	// Cancelling a finished job is a polite no-op.
	reply, err := b.Call(&wire.Request{Op: wire.OpCompileCancel, Value: tR.Value})
	if err != nil || !strings.Contains(reply.Lines[0], "already done") {
		t.Fatalf("cancel of done job: %q, %v", reply.Lines, err)
	}
}

// TestCompileUnknownDesign covers the design validation path.
func TestCompileUnknownDesign(t *testing.T) {
	_, addr := startServer(t, server.Config{PoolSize: 1})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := submit(c, "no-such-design", "vti", 0); err == nil {
		t.Fatal("submit of unknown design succeeded")
	}
	if _, err := submit(c, "counter", "bogus-mode", 0); err == nil {
		t.Fatal("submit with unknown mode succeeded")
	}
}
