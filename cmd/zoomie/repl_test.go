package main

import (
	"bytes"
	"net"
	"os"
	"regexp"
	"strings"
	"testing"

	"zoomie/internal/client"
	"zoomie/internal/server"
)

// The scripted session exercises every REPL command family: breakpoints,
// until, peek, step, poke, mem, trace, inspect, snapshot save/restore,
// time travel (seek/rewind/reverse-continue/savestate/timelines),
// status, errors, and help.
const parityScript = `help
break q 50 any
until
print cnt
step 25
print cnt
set cnt 500
print cnt
snapshot
step 5
print cnt
snapshot restore
print cnt
print cnt dut.cnt
print cnt nosuchreg
watch cnt 16
trace cnt 4
inspect dut
status
savestate mark
step 40
print cnt
rewind 15
print cnt
reverse-continue
print cnt
loadstate mark
print cnt
seek 30
print cnt
step 10
timelines
history
seek 999999999
rewind 999999999
loadstate nosuchstate
mem nosuchmem 0
print nosuchreg
snapshot bogus
compiles
compile
compile
recompile 1
compiles
compiles cancel 1
compiles cancel 999
quit
`

// modeled_cable_time differs between local and remote: the server's
// event detection performs extra readbacks after clock-advancing
// commands, which costs modeled cable time (but never design cycles).
// Normalize it away before comparing.
var cableTimeRE = regexp.MustCompile(`modeled_cable_time=\S+`)

func normalize(out string) string {
	return cableTimeRE.ReplaceAllString(out, "modeled_cable_time=X")
}

// startServer serves a one-board zoomied on a loopback port until the
// test ends.
func startServer(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{PoolSize: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		<-done
	})
	return ln.Addr().String()
}

// replLegs runs one scripted stdin against an in-process counter session
// and a remote one on a zoomied server, and returns both normalized
// transcripts.
func replLegs(t *testing.T, script string) (local, remote string) {
	t.Helper()
	lt, err := localCatalogTarget("counter")
	if err != nil {
		t.Fatal(err)
	}
	var localOut bytes.Buffer
	repl(lt, "counter", strings.NewReader(script), &localOut)
	if err := lt.Close(); err != nil {
		t.Fatalf("local close: %v", err)
	}

	// Remote leg: real server, real TCP, real client.
	rt, err := dialTarget(startServer(t), "counter")
	if err != nil {
		t.Fatal(err)
	}
	var remoteOut bytes.Buffer
	repl(rt, "counter", strings.NewReader(script), &remoteOut)
	if err := rt.Close(); err != nil {
		t.Fatalf("remote close: %v", err)
	}
	return normalize(localOut.String()), normalize(remoteOut.String())
}

// TestREPLParityLocalRemote runs the identical scripted stdin against an
// in-process counter session and a remote one on a zoomied server, and
// requires byte-identical REPL output (modulo modeled cable time). This
// is the guarantee that -connect is a transparent transport, not a
// second debugger. Both legs run the same op-table handlers, so parity
// alone cannot catch a handler change that moves both at once: each leg
// must also match testdata/parity.golden.
func TestREPLParityLocalRemote(t *testing.T) {
	golden, err := os.ReadFile("testdata/parity.golden")
	if err != nil {
		t.Fatal(err)
	}
	local, remote := replLegs(t, parityScript)
	if local != remote {
		t.Errorf("REPL output diverges between local and remote:\n--- local ---\n%s\n--- remote ---\n%s", local, remote)
	}
	if local != string(golden) {
		t.Errorf("REPL output differs from testdata/parity.golden:\n--- got ---\n%s\n--- want ---\n%s", local, golden)
	}
	// The session did real debugging, not just echoes.
	for _, want := range []string{
		"paused after",
		"cnt = 50 (0x32)",
		"cnt = 75 (0x4b)",
		"cnt = 500 (0x1f4)",
		"snapshot of 1 registers, 0 memories",
		"cnt = 505 (0x1f9)",
		"dut.cnt = 500 (0x1f4)",
		"cnt changed 500 -> 501 after 1 cycles",
		"paused=true",
		"savestate \"mark\":",
		"rewound 15 cycles:",
		"stopped at cycle",
		"restored \"mark\" at cycle",
		"seek: at cycle 30 (timeline 0)",
		"cnt = 30 (0x1e)",
		"timeline 1: ",
		"forked from 0 at cycle",
		"history: recording on timeline 3 (4 timelines",
		"savestates: mark",
		"error:",
		"(no compiles)",
		"job 1 submitted",
		"job 1 cache hit",
		"job 2 submitted",
		"tag=1",
		"job 1 already done",
		"error: no compile job 999",
	} {
		if !strings.Contains(local, want) {
			t.Errorf("local output missing %q", want)
		}
	}
}

// TestREPLStreamCommands drives the v3-only stream/counters commands:
// against a remote ILA design they render real capture windows and
// counter frames; against a local target they fail with a clear error
// instead of silently doing nothing.
func TestREPLStreamCommands(t *testing.T) {
	rt, err := dialTarget(startServer(t), "ila-counter")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	repl(rt, "ila-counter", strings.NewReader("run 64\nstream 2\ncounters 1\nscrub 1\nquit\n"), &out)
	if err := rt.Close(); err != nil {
		t.Fatalf("remote close: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		"window 1 (seq ", "window 2 (seq ", "16 cycles",
		"qlow", "frame 1 (seq ", "zoomied.",
		"keyframes 1 (seq ", "  pos ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("stream output missing %q in:\n%s", want, got)
		}
	}

	lt, err := localCatalogTarget("counter")
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	repl(lt, "counter", strings.NewReader("stream\ncounters\nscrub\nquit\n"), &out)
	lt.Close()
	if c := strings.Count(out.String(), "error:"); c != 3 {
		t.Errorf("local stream/counters/scrub printed %d errors, want 3:\n%s", c, out.String())
	}
}

// TestCatalogName checks the variant-flag mapping shared by local and
// remote modes.
func TestCatalogName(t *testing.T) {
	cases := []struct {
		design    string
		bug, hang bool
		want      string
	}{
		{"counter", false, false, "counter"},
		{"cohort", false, false, "cohort"},
		{"cohort", true, false, "cohort-bug"},
		{"exception", false, false, "exception"},
		{"exception", false, true, "exception-hang"},
		{"netstack", false, false, "netstack"},
		{"cohort", false, true, "cohort"}, // -hang is not cohort's flag
	}
	for _, c := range cases {
		if got := catalogName(c.design, c.bug, c.hang); got != c.want {
			t.Errorf("catalogName(%q,%v,%v) = %q, want %q", c.design, c.bug, c.hang, got, c.want)
		}
	}
}

// TestRemoteSnapshotRestoreBeforeSave confirms the error text crosses
// the wire verbatim.
func TestRemoteErrorTextParity(t *testing.T) {
	c, err := client.Dial(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Attach("counter")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Restore(); err == nil || err.Error() != "no snapshot saved" {
		t.Errorf("restore-before-save error %q, want %q", err, "no snapshot saved")
	}
}

// TestREPLZeroCountsLocalRemote pins what a zero or negative count
// means: the op table hands counts to the facade unchanged, so "step 0"
// and "step -3" fail, "rewind 0" stays put, "until 0" gives up at once
// and "run 0" runs nothing — in-process and over -connect alike.
func TestREPLZeroCountsLocalRemote(t *testing.T) {
	const script = "pause\nstep 10\nstep 0\nstep -3\nprint cnt\nrewind 0\nuntil 0\nrun 0\nstatus\nprint cnt\nquit\n"
	const want = `(zoomie) (zoomie) (zoomie) error: dbg: step count must be positive
(zoomie) error: dbg: step count must be positive
(zoomie) cnt = 10 (0xa)
(zoomie) rewound 0 cycles: at cycle 10 (timeline 0)
(zoomie) error: dbg: no trigger fired within 0 ticks
(zoomie) advanced 0 cycles
(zoomie) paused=true executed_cycles=10 modeled_cable_time=X
(zoomie) cnt = 10 (0xa)
(zoomie) `
	local, remote := replLegs(t, script)
	if local != want {
		t.Errorf("in-process transcript:\n%s\nwant:\n%s", local, want)
	}
	if remote != want {
		t.Errorf("-connect transcript:\n%s\nwant:\n%s", remote, want)
	}
}
