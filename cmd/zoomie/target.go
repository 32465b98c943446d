package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/farm"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// target is what the REPL drives: one session op at a time, whether the
// design runs in-process on a private modeled board (localTarget) or on
// a board leased from a zoomied server across the network
// (remoteTarget). Both run the same op-table handlers — in-process
// through server.Local.Do, remotely through client.Session.Do and the
// daemon's actor — which is what guarantees command parity; the
// scripted-stdin tests run the identical session against both.
type target interface {
	Do(ctx context.Context, req *wire.Request) (*wire.Response, error)
	// Describe returns the device name and compile report for the banner.
	Describe() (device, report string)
	Close() error
}

// localTarget debugs in-process: the board lives in this process and the
// snapshot is held here.
type localTarget struct {
	*server.Local

	// design is the catalog name (empty for -file sessions); compileFarm
	// is the lazily created in-process compile farm behind the compile
	// verbs, so local and remote REPLs share one rendering path.
	design      string
	compileFarm *farm.Farm
}

func (t *localTarget) Describe() (string, string) {
	res := t.Session().Result
	return res.Options.Device.Name, res.Report.String()
}

// remoteTarget debugs across the wire: every op is a round trip to a
// zoomied session actor, and the snapshot stays server-side.
type remoteTarget struct {
	*client.Session
	c *client.Client
}

func (t *remoteTarget) Describe() (string, string) { return t.Device, t.Report }

func (t *remoteTarget) Close() error {
	err := t.Detach()
	t.c.Close()
	return err
}

// compiler is the optional surface behind the compile/recompile/compiles
// REPL verbs. Unlike streamer it exists on BOTH sides of the seam: the
// local target runs an in-process compile farm, the remote one drives
// the daemon's shared farm over the v3 ops, and both render through the
// farm's own deterministic formatters (modeled times, content digests —
// never wall clock), so the parity script covers the compile verbs too.
type compiler interface {
	// CompileRun submits one compile ("vti" or "recompile" of edit tag)
	// and waits for it, returning the attach acknowledgement and the
	// job's final status row.
	CompileRun(mode string, tag int) ([]string, error)
	// CompileListLines renders one status row per farm job.
	CompileListLines() ([]string, error)
	// CompileCancelCmd releases this client's hold on a job.
	CompileCancelCmd(id uint64) (string, error)
}

// compileWait bounds how long the compile verbs block the REPL.
const compileWait = 5 * time.Minute

func (t *localTarget) farm() *farm.Farm {
	if t.compileFarm == nil {
		t.compileFarm = farm.New(farm.Config{})
	}
	return t.compileFarm
}

func (t *localTarget) CompileRun(mode string, tag int) ([]string, error) {
	if t.design == "" {
		return nil, fmt.Errorf("compile needs a catalog design (-design), not -file")
	}
	spec, err := server.CompileSpec(t.design)
	if err != nil {
		return nil, err
	}
	f := t.farm()
	var job *farm.Job
	var att farm.Attach
	switch mode {
	case "vti":
		job, att, err = f.Compile(spec)
	case "recompile":
		job, att, err = f.Recompile(spec, tag)
	default:
		err = fmt.Errorf("unknown compile mode %q", mode)
	}
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), compileWait)
	defer cancel()
	if err := job.Wait(ctx); err != nil {
		return nil, err
	}
	return []string{farm.AttachLine(job.ID(), att), job.Status().Line()}, nil
}

func (t *localTarget) CompileListLines() ([]string, error) {
	if t.compileFarm == nil {
		return nil, nil
	}
	return t.compileFarm.StatusLines(), nil
}

func (t *localTarget) CompileCancelCmd(id uint64) (string, error) {
	return t.farm().CancelLine(id)
}

func (t *remoteTarget) CompileRun(mode string, tag int) ([]string, error) {
	ticket, err := t.c.CompileSubmit(t.Design, mode, tag)
	if err != nil {
		return nil, err
	}
	lines := append([]string(nil), ticket.Lines...)
	if !ticket.Done {
		ctx, cancel := context.WithTimeout(context.Background(), compileWait)
		defer cancel()
		final, err := ticket.Wait(ctx)
		if err != nil {
			return nil, err
		}
		lines = append(lines, final)
	}
	return lines, nil
}

func (t *remoteTarget) CompileListLines() ([]string, error) {
	lines, _, err := t.c.CompileStatus(0)
	return lines, err
}

func (t *remoteTarget) CompileCancelCmd(id uint64) (string, error) {
	return t.c.CompileCancel(id)
}

// streamer is the optional surface behind the stream/counters REPL
// commands. Only remote targets implement it — streaming rides the v3
// push channel, which has no in-process equivalent — so the shared
// parity script never touches it and local/remote output stays
// byte-identical.
type streamer interface {
	// StreamWindows receives n ILA capture windows and renders each as a
	// waveform table, advancing the clock between polls so back-to-back
	// windows complete without a separate run command.
	StreamWindows(n int, out io.Writer) error
	// StreamCounters receives n aggregated counter-delta frames.
	StreamCounters(n int, out io.Writer) error
	// StreamKeyframes receives n frames from the history keyframe feed
	// and renders their [pos cycle bytes] rows — the scrubbing timeline a
	// GUI would draw.
	StreamKeyframes(n int, out io.Writer) error
}

// fleeter is the optional admin surface behind the fleet/drain REPL
// commands. Only meaningful when -connect points at a zfleet
// coordinator — a plain zoomied answers the fleet ops with a typed
// unknown-op error, which the REPL surfaces as-is.
type fleeter interface {
	// FleetStatLines renders one row per daemon: address, lease state,
	// homed session count, draining flag.
	FleetStatLines() ([]string, error)
	// FleetDrain flips a daemon's draining flag; enabling migrates its
	// sessions to the rest of the fleet first and reports each move.
	FleetDrain(addr string, on bool) ([]string, error)
}

func (t *remoteTarget) FleetStatLines() ([]string, error) {
	resp, err := t.c.Call(&wire.Request{Op: wire.OpFleetStat})
	if err != nil {
		return nil, err
	}
	return resp.Lines, nil
}

func (t *remoteTarget) FleetDrain(addr string, on bool) ([]string, error) {
	resp, err := t.c.Call(&wire.Request{Op: wire.OpFleetDrain, Name: addr, Enable: on})
	if err != nil {
		return nil, err
	}
	return resp.Lines, nil
}

// streamRecvBudget bounds how long one stream command waits in total, so
// scripted stdin can never hang the REPL.
const streamRecvBudget = 30 * time.Second

// stream opens a stream of kind on session sid, polled every everyMS,
// and renders n of its frames. A 200ms receive that finds nothing calls
// nudge, so the design moves and the next frame comes, until the
// streamRecvBudget runs out; noun names the frames in the errors.
func (t *remoteTarget) stream(kind string, sid uint64, everyMS, n int, noun string,
	nudge func() error, render func(i int, ev *wire.Event)) error {
	st, err := t.c.OpenStream(kind, sid, 0, everyMS)
	if err != nil {
		return err
	}
	defer st.Close()
	deadline := time.Now().Add(streamRecvBudget)
	for i := 0; i < n; {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		ev, ok := st.RecvCtx(ctx)
		expired := ctx.Err() != nil
		cancel()
		switch {
		case ok:
			i++
			render(i, &ev)
		case expired:
			if time.Now().After(deadline) {
				return fmt.Errorf("gave up after %d/%d %s (%v budget)", i, n, noun, streamRecvBudget)
			}
			if err := nudge(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("stream closed after %d/%d %s", i, n, noun)
		}
	}
	return nil
}

func (t *remoteTarget) StreamWindows(n int, out io.Writer) error {
	// No window yet: push the design along so the trigger can fire and
	// the capture buffer fill.
	run := func() error { return t.Run(256) }
	return t.stream(wire.StreamILA, t.ID, 2, n, "windows", run, func(i int, ev *wire.Event) {
		fmt.Fprintf(out, "window %d (seq %d, %d cycles, dropped %d):\n",
			i, ev.Seq, len(ev.Rows), ev.Dropped)
		fmt.Fprint(out, "  cycle")
		for _, name := range ev.Names {
			fmt.Fprintf(out, " %10s", name)
		}
		fmt.Fprintln(out)
		for r, row := range ev.Rows {
			fmt.Fprintf(out, "  %5d", r)
			for _, v := range row {
				fmt.Fprintf(out, " %10d", v)
			}
			fmt.Fprintln(out)
		}
	})
}

func (t *remoteTarget) StreamCounters(n int, out io.Writer) error {
	// Counters only flush when something moved; a status ping is the
	// cheapest way to guarantee the next interval is not idle.
	ping := func() error { _, _, _, err := t.Status(); return err }
	return t.stream(wire.StreamCounters, 0, 50, n, "frames", ping, func(i int, ev *wire.Event) {
		fmt.Fprintf(out, "frame %d (seq %d, %d events, dropped %d):\n",
			i, ev.Seq, ev.Count, ev.Dropped)
		for j, name := range ev.Names {
			fmt.Fprintf(out, "  %-24s +%d\n", name, ev.Deltas[j])
		}
	})
}

func (t *remoteTarget) StreamKeyframes(n int, out io.Writer) error {
	// No keyframe yet: advance the design so the recorder crosses the
	// next keyframe boundary.
	run := func() error { return t.Run(256) }
	return t.stream(wire.StreamHistory, t.ID, 50, n, "keyframe frames", run, func(i int, ev *wire.Event) {
		fmt.Fprintf(out, "keyframes %d (seq %d, %d new, dropped %d):\n",
			i, ev.Seq, len(ev.Rows), ev.Dropped)
		for _, row := range ev.Rows {
			fmt.Fprintf(out, "  pos %6d  cycle %8d  %6d bytes\n", row[0], row[1], row[2])
		}
	})
}
