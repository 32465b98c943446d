package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// target is what the REPL drives: one op at a time, whether the design
// runs in-process on a private modeled board (localTarget) or on a board
// leased from a zoomied server across the network (remoteTarget). Both
// run the daemon's handlers — in-process through server.Local.Do,
// remotely through client.Session.Do, the daemon's actor for session ops
// and its compile handler for the compile ops — which is what guarantees
// command parity; the scripted-stdin tests run the identical session
// against both.
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
// unknown-op error before it looks for a session, which the REPL
// surfaces as-is.
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
