package server_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/server"
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

	tA, err := a.CompileSubmit("counter", "vti", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tA.Lines) == 0 || !strings.Contains(tA.Lines[0], "submitted") {
		t.Fatalf("first submit ack = %v, want 'submitted'", tA.Lines)
	}
	lineA, err := tA.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lineA, "done") {
		t.Fatalf("final status %q, want done", lineA)
	}

	tB, err := b.CompileSubmit("counter", "vti", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tB.Done || tB.ID != tA.ID {
		t.Fatalf("second client submit: done=%v id=%d, want terminal hit on job %d",
			tB.Done, tB.ID, tA.ID)
	}
	if !strings.Contains(tB.Lines[0], "cache hit") {
		t.Fatalf("second client ack = %q, want cache hit", tB.Lines[0])
	}
	if len(tB.Lines) < 2 || bitsOf(t, tB.Lines[1]) != bitsOf(t, lineA) {
		t.Fatalf("cache-hit digest differs: %v vs %q", tB.Lines, lineA)
	}

	lines, _, err := b.CompileStatus(0)
	if err != nil || len(lines) == 0 {
		t.Fatalf("job listing: %v, %v", lines, err)
	}

	// The recompile flow spawns its base compile as a companion job; the
	// base here is itself a cache hit of A's initial compile checkpoints.
	tR, err := b.CompileSubmit("counter", "recompile", 1)
	if err != nil {
		t.Fatal(err)
	}
	lineR, err := tR.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(lineR, "recompile") || !strings.Contains(lineR, "tag=1") {
		t.Fatalf("recompile status %q", lineR)
	}

	// Progress stream on a terminal job: the late subscription still
	// delivers the terminal state as a frame.
	st, err := tR.Progress(8)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ev, ok := st.RecvCtx(ctx)
	if !ok || len(ev.Names) != 1 || ev.Names[0] != "done" {
		t.Fatalf("progress frame = %+v ok=%v, want terminal 'done'", ev, ok)
	}

	// The synchronous bit-identity oracle: warm == cold.
	cold, warm, err := a.CompileCheck("counter", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cold == "" || cold != warm {
		t.Fatalf("bit identity check: cold %q warm %q", cold, warm)
	}

	// Cancelling a finished job is a polite no-op.
	reply, err := b.CompileCancel(tR.ID)
	if err != nil || !strings.Contains(reply, "already done") {
		t.Fatalf("cancel of done job: %q, %v", reply, err)
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
	if _, err := c.CompileSubmit("no-such-design", "vti", 0); err == nil {
		t.Fatal("submit of unknown design succeeded")
	}
	if _, err := c.CompileSubmit("counter", "bogus-mode", 0); err == nil {
		t.Fatal("submit with unknown mode succeeded")
	}
}
