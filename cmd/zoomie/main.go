// Command zoomie is the interactive, gdb-flavoured FPGA debugger: it
// compiles one of the bundled designs, loads it onto a modeled Alveo U200
// and drops into a REPL with breakpoints, stepping, full state inspection,
// value forcing and snapshots — everything running through configuration
// frames over the modeled JTAG cable.
//
// Usage:
//
//	zoomie -design cohort -bug        # case study 1's buggy accelerator
//	zoomie -design exception -hang    # case study 2's trap loop
//	zoomie -design netstack
//	zoomie -design counter
//	zoomie -connect host:9620 -design counter   # same REPL, board on a zoomied server
//
// With -connect the design runs on a board leased from a remote zoomied
// daemon (see cmd/zoomied); every REPL command becomes one wire round
// trip and behaves identically to the in-process session.
//
// Type "help" at the prompt for commands. The REPL reads stdin, so it
// scripts cleanly: echo "run 100\npause\ninspect dut" | zoomie -design counter
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/hdl"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

func main() {
	design := flag.String("design", "counter", "design: counter | cohort | exception | netstack")
	file := flag.String("file", "", "debug a .zrtl design file instead of a bundled design (local only)")
	watch := flag.String("watch", "", "comma-separated output ports to watch (with -file)")
	bug := flag.Bool("bug", false, "enable the TLB bug (cohort design)")
	hang := flag.Bool("hang", false, "run the hanging program (exception design)")
	connect := flag.String("connect", "", "attach to a zoomied server at host:port instead of debugging in-process")
	flag.Parse()

	name := catalogName(*design, *bug, *hang)
	var (
		t    target
		err  error
		what = name
	)
	switch {
	case *connect != "":
		if *file != "" {
			log.Fatal("-file is local-only; it cannot be combined with -connect")
		}
		t, err = dialTarget(*connect, name)
	case *file != "":
		// A file design is not in the catalog the compile farm builds from.
		what, name = *file, ""
		t, err = fileTarget(*file, *watch)
	default:
		t, err = localCatalogTarget(name)
	}
	if err != nil {
		log.Fatal(err)
	}
	device, report := t.Describe()
	fmt.Printf("zoomie: %s loaded on %s, clock running (%s)\n", what, device, report)
	fmt.Println(`type "help" for commands`)

	repl(t, name, os.Stdin, os.Stdout)
	t.Close()
}

// catalogName maps the design flags onto the shared catalog (the same
// names cmd/zoomied serves), so the variant flags work locally and
// remotely alike.
func catalogName(design string, bug, hang bool) string {
	switch {
	case design == "cohort" && bug:
		return "cohort-bug"
	case design == "exception" && hang:
		return "exception-hang"
	}
	return design
}

func localCatalogTarget(name string) (target, error) {
	sess, err := server.NewCatalogSession(name, nil)
	if err != nil {
		return nil, err
	}
	return &localTarget{server.NewLocal(sess)}, nil
}

func dialTarget(addr, name string) (target, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	sess, err := c.Attach(name)
	if err != nil {
		c.Close()
		return nil, err
	}
	return &remoteTarget{Session: sess, c: c}, nil
}

func fileTarget(path, watch string) (target, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := hdl.Parse(string(src))
	if err != nil {
		return nil, err
	}
	cfg := zoomie.DebugConfig{}
	if watch != "" {
		cfg.Watches = strings.Split(watch, ",")
	}
	sess, err := zoomie.Debug(d, cfg)
	if err != nil {
		return nil, err
	}
	return &localTarget{server.NewLocal(sess)}, nil
}

// repl reads commands from in until quit or EOF. design is the catalog
// name the compile verbs submit ("" for a -file design).
func repl(t target, design string, in io.Reader, out io.Writer) {
	do := func(req *wire.Request) (*wire.Response, error) { return t.Do(context.Background(), req) }
	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "(zoomie) ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		fields := strings.Fields(line)
		if len(fields) == 0 {
			fmt.Fprint(out, "(zoomie) ")
			continue
		}
		cmd, args := fields[0], fields[1:]
		var resp *wire.Response
		var err error
		switch cmd {
		case "help", "h":
			printHelp(out)
		case "quit", "q", "exit":
			return
		case "run", "r":
			n := 100
			if len(args) > 0 {
				n, _ = strconv.Atoi(args[0])
			}
			if _, err = do(&wire.Request{Op: wire.OpRun, N: n}); err == nil {
				fmt.Fprintf(out, "advanced %d cycles\n", n)
			}
		case "pause":
			_, err = do(&wire.Request{Op: wire.OpPause})
		case "continue", "c":
			_, err = do(&wire.Request{Op: wire.OpResume})
		case "step", "s":
			n := 1
			if len(args) > 0 {
				n, _ = strconv.Atoi(args[0])
			}
			_, err = do(&wire.Request{Op: wire.OpStep, N: n})
		case "until":
			max := 1 << 20
			if len(args) > 0 {
				max, _ = strconv.Atoi(args[0])
			}
			if resp, err = do(&wire.Request{Op: wire.OpUntil, N: max}); err == nil {
				fmt.Fprintf(out, "paused after %d cycles\n", resp.Ran)
			}
		case "break", "b":
			if len(args) < 2 {
				err = fmt.Errorf("usage: break <watched-signal> <value> [any|all]")
				break
			}
			v, perr := strconv.ParseUint(args[1], 0, 64)
			if perr != nil {
				err = perr
				break
			}
			req := &wire.Request{Op: wire.OpBreak, Name: args[0], Value: v}
			if len(args) > 2 {
				req.Mode = args[2]
			}
			_, err = do(req)
		case "clearbreaks":
			_, err = do(&wire.Request{Op: wire.OpClearBrk})
		case "assert":
			if len(args) < 2 {
				err = fmt.Errorf("usage: assert <name> on|off")
				break
			}
			_, err = do(&wire.Request{Op: wire.OpAssert, Name: args[0], Enable: args[1] == "on"})
		case "print", "p":
			if len(args) < 1 {
				err = fmt.Errorf("usage: print <register> [register...]")
				break
			}
			if len(args) == 1 {
				if resp, err = do(&wire.Request{Op: wire.OpPeek, Name: args[0]}); err == nil {
					fmt.Fprintf(out, "%s = %d (%#x)\n", args[0], resp.Value, resp.Value)
				}
				break
			}
			// Several registers: one batched readback pass instead of
			// one cable transaction per name.
			var vals []uint64
			if vals, err = peekBatch(t, args); err == nil {
				for i, name := range args {
					fmt.Fprintf(out, "%s = %d (%#x)\n", name, vals[i], vals[i])
				}
			}
		case "watch", "w":
			err = watchCmd(t, args, out)
		case "set":
			if len(args) < 2 {
				err = fmt.Errorf("usage: set <register> <value>")
				break
			}
			var v uint64
			if v, err = strconv.ParseUint(args[1], 0, 64); err == nil {
				_, err = do(&wire.Request{Op: wire.OpPoke, Name: args[0], Value: v})
			}
		case "mem":
			if len(args) < 2 {
				err = fmt.Errorf("usage: mem <memory> <addr>")
				break
			}
			addr, _ := strconv.Atoi(args[1])
			if resp, err = do(&wire.Request{Op: wire.OpPeekMem, Name: args[0], Addr: addr}); err == nil {
				fmt.Fprintf(out, "%s[%d] = %d (%#x)\n", args[0], addr, resp.Value, resp.Value)
			}
		case "trace":
			// trace SIG1,SIG2 N [file.vcd]
			if len(args) < 2 {
				err = fmt.Errorf("usage: trace sig1,sig2 cycles [out.vcd]")
				break
			}
			n, perr := strconv.Atoi(args[1])
			if perr != nil {
				err = perr
				break
			}
			if resp, err = do(&wire.Request{Op: wire.OpTrace, Signals: strings.Split(args[0], ","), N: n}); err != nil {
				break
			}
			tr := &zoomie.StepTrace{Signals: resp.Trace.Signals, Widths: resp.Trace.Widths, Rows: resp.Trace.Rows}
			fmt.Fprint(out, tr.Render())
			if len(args) > 2 {
				var f *os.File
				f, err = os.Create(args[2])
				if err != nil {
					break
				}
				err = tr.WriteVCD(f, "")
				f.Close()
				if err == nil {
					fmt.Fprintf(out, "wrote %s\n", args[2])
				}
			}
		case "inspect", "i":
			prefix := "dut"
			if len(args) > 0 {
				prefix = args[0]
			}
			if resp, err = do(&wire.Request{Op: wire.OpInspect, Prefix: prefix}); err == nil {
				for _, l := range resp.Lines {
					fmt.Fprintln(out, " ", l)
				}
			}
		case "snapshot":
			which := "save"
			if len(args) > 0 {
				which = args[0]
			}
			switch which {
			case "save":
				if resp, err = do(&wire.Request{Op: wire.OpSnapSave}); err == nil {
					fmt.Fprintf(out, "snapshot of %d registers, %d memories at cycle %d\n",
						resp.Regs, resp.Mems, resp.Cycles)
				}
			case "restore":
				_, err = do(&wire.Request{Op: wire.OpSnapRest})
			default:
				err = fmt.Errorf("usage: snapshot [save|restore]")
			}
		case "status":
			if resp, err = do(&wire.Request{Op: wire.OpSessStat}); err == nil {
				fmt.Fprintf(out, "paused=%v executed_cycles=%d modeled_cable_time=%v\n",
					resp.Paused, resp.Cycles, time.Duration(resp.ElapsedNS).Round(1000))
			}
		case "stream":
			n := 1
			if len(args) > 0 {
				n, _ = strconv.Atoi(args[0])
			}
			if s, ok := t.(streamer); ok {
				err = s.StreamWindows(n, out)
			} else {
				err = fmt.Errorf("stream requires -connect to a zoomied server (v3) serving an ILA design")
			}
		case "counters":
			n := 1
			if len(args) > 0 {
				n, _ = strconv.Atoi(args[0])
			}
			if s, ok := t.(streamer); ok {
				err = s.StreamCounters(n, out)
			} else {
				err = fmt.Errorf("counters requires -connect to a zoomied server (v3)")
			}
		case "input":
			if len(args) < 2 {
				err = fmt.Errorf("usage: input <port> <value>")
				break
			}
			var v uint64
			if v, err = strconv.ParseUint(args[1], 0, 64); err == nil {
				_, err = do(&wire.Request{Op: wire.OpInput, Name: args[0], Value: v})
			}
		case "seek":
			if len(args) < 1 {
				err = fmt.Errorf("usage: seek <cycle>")
				break
			}
			var cyc uint64
			if cyc, err = strconv.ParseUint(args[0], 0, 64); err != nil {
				break
			}
			if resp, err = do(&wire.Request{Op: wire.OpHistSeek, Value: cyc}); err == nil {
				fmt.Fprintf(out, "seek: at cycle %d (timeline %d)\n", cyc, resp.Ran)
			}
		case "rewind":
			n := uint64(1)
			if len(args) > 0 {
				if n, err = strconv.ParseUint(args[0], 0, 64); err != nil {
					break
				}
			}
			if resp, err = do(&wire.Request{Op: wire.OpHistRewind, N: int(n)}); err == nil {
				fmt.Fprintf(out, "rewound %d cycles: at cycle %d (timeline %d)\n", n, resp.Cycles, resp.Ran)
			}
		case "reverse-continue", "rc":
			if resp, err = do(&wire.Request{Op: wire.OpHistRevCont}); err == nil {
				if resp.Paused {
					fmt.Fprintf(out, "stopped at cycle %d\n", resp.Cycles)
				} else {
					fmt.Fprintln(out, "no earlier trigger in recorded history")
				}
			}
		case "savestate":
			if len(args) < 1 {
				err = fmt.Errorf("usage: savestate <name>")
				break
			}
			if resp, err = do(&wire.Request{Op: wire.OpHistSave, Name: args[0]}); err == nil {
				fmt.Fprintf(out, "savestate %q: %d registers, %d memories at cycle %d\n",
					args[0], resp.Regs, resp.Mems, resp.Cycles)
			}
		case "loadstate":
			if len(args) < 1 {
				err = fmt.Errorf("usage: loadstate <name>")
				break
			}
			if resp, err = do(&wire.Request{Op: wire.OpHistLoad, Name: args[0]}); err == nil {
				fmt.Fprintf(out, "restored %q at cycle %d\n", args[0], resp.Cycles)
			}
		case "history", "timelines":
			op := wire.OpHistStat
			if cmd == "timelines" {
				op = wire.OpHistTimelines
			}
			if resp, err = do(&wire.Request{Op: op}); err == nil {
				for _, l := range resp.Lines {
					fmt.Fprintln(out, l)
				}
			}
		case "scrub":
			n := 1
			if len(args) > 0 {
				n, _ = strconv.Atoi(args[0])
			}
			if s, ok := t.(streamer); ok {
				err = s.StreamKeyframes(n, out)
			} else {
				err = fmt.Errorf("scrub requires -connect to a zoomied server (v3)")
			}
		case "compile", "recompile":
			req := &wire.Request{Op: wire.OpCompileSubmit, Design: design, Mode: "vti"}
			if cmd == "recompile" {
				req.Mode, req.N = "recompile", 1
				if len(args) > 0 {
					req.N, _ = strconv.Atoi(args[0])
				}
			}
			var lines []string
			lines, err = compileRun(do, req)
			for _, l := range lines {
				fmt.Fprintln(out, l)
			}
		case "compiles":
			req := &wire.Request{Op: wire.OpCompileStatus}
			if len(args) > 1 && args[0] == "cancel" {
				req.Op = wire.OpCompileCancel
				if req.Value, err = strconv.ParseUint(args[1], 0, 64); err != nil {
					break
				}
			}
			if resp, err = do(req); err != nil {
				break
			}
			if len(resp.Lines) == 0 {
				fmt.Fprintln(out, "(no compiles)")
			}
			for _, l := range resp.Lines {
				fmt.Fprintln(out, l)
			}
		case "fleet":
			if f, ok := t.(fleeter); ok {
				var lines []string
				lines, err = f.FleetStatLines()
				for _, l := range lines {
					fmt.Fprintln(out, l)
				}
			} else {
				err = fmt.Errorf("fleet requires -connect to a zfleet coordinator")
			}
		case "drain":
			if len(args) < 1 {
				err = fmt.Errorf("usage: drain <daemon-addr> [off]")
				break
			}
			if f, ok := t.(fleeter); ok {
				var lines []string
				lines, err = f.FleetDrain(args[0], len(args) < 2 || args[1] != "off")
				for _, l := range lines {
					fmt.Fprintln(out, l)
				}
			} else {
				err = fmt.Errorf("drain requires -connect to a zfleet coordinator")
			}
		default:
			err = fmt.Errorf("unknown command %q (try help)", cmd)
		}
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		}
		fmt.Fprint(out, "(zoomie) ")
	}
}

// compileWait bounds how long the compile verbs block the REPL.
const compileWait = 5 * time.Minute

// compileRun submits one compile and waits for it by polling its status
// until the job is terminal, bounded by compileWait. It returns the
// submit acknowledgement and the job's final status row; a cache hit is
// terminal at submit and needs no polling.
func compileRun(do func(*wire.Request) (*wire.Response, error), req *wire.Request) ([]string, error) {
	resp, err := do(req)
	if err != nil {
		return nil, err
	}
	lines, id := resp.Lines, resp.Value
	deadline := time.Now().Add(compileWait)
	for resp.Ran != 1 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("compile job %d not done after %v", id, compileWait)
		}
		time.Sleep(10 * time.Millisecond)
		if resp, err = do(&wire.Request{Op: wire.OpCompileStatus, Value: id}); err != nil {
			return nil, err
		}
		if resp.Ran == 1 {
			lines = append(lines, resp.Lines...)
		}
	}
	return lines, nil
}

// peekBatch reads several registers in one planned pass: one coalesced
// readback per SLR, and one round trip remotely.
func peekBatch(t target, names []string) ([]uint64, error) {
	items := make([]wire.BatchItem, len(names))
	for i, name := range names {
		items[i] = wire.BatchItem{Name: name}
	}
	resp, err := t.Do(context.Background(), &wire.Request{Op: wire.OpPeekBatch, Items: items})
	if err != nil {
		return nil, err
	}
	return resp.Values, nil
}

// watchCmd single-steps the paused design until any of the listed
// registers changes value, sampling all of them with one batched
// readback per probe. The last argument is the cycle budget when it
// parses as an integer (default 1024). Step sizes grow geometrically,
// so a distant change costs O(log n) probes instead of n.
func watchCmd(t target, args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: watch <register> [register...] [maxcycles]")
	}
	maxCycles := 1024
	sigs := args
	if len(args) > 1 {
		if n, err := strconv.Atoi(args[len(args)-1]); err == nil && n > 0 {
			maxCycles = n
			sigs = args[:len(args)-1]
		}
	}
	old, err := peekBatch(t, sigs)
	if err != nil {
		return err
	}
	cycles, step := 0, 1
	for cycles < maxCycles {
		if step > maxCycles-cycles {
			step = maxCycles - cycles
		}
		if _, err := t.Do(context.Background(), &wire.Request{Op: wire.OpStep, N: step}); err != nil {
			return err
		}
		cycles += step
		cur, err := peekBatch(t, sigs)
		if err != nil {
			return err
		}
		for i, s := range sigs {
			if cur[i] != old[i] {
				fmt.Fprintf(out, "%s changed %d -> %d after %d cycles\n",
					s, old[i], cur[i], cycles)
				return nil
			}
		}
		if step < 64 {
			step *= 2
		}
	}
	fmt.Fprintf(out, "no change on %s within %d cycles\n",
		strings.Join(sigs, ","), maxCycles)
	return nil
}

func printHelp(out io.Writer) {
	fmt.Fprint(out, `commands:
  run [n]              let the FPGA run n cycles of wall time (default 100)
  pause                halt the design (timing-precise)
  continue | c         clear pause state and run freely
  step [n] | s         execute exactly n MUT cycles, then pause
  until [max]          run until a breakpoint/assertion fires
  break SIG VAL [any|all]  arm a value breakpoint on a watched signal
  clearbreaks          disarm all value breakpoints
  assert NAME on|off   toggle an assertion breakpoint
  print REG... | p     read registers through frame readback (several
                       names share one batched readback pass)
  watch REG... [max]   step until any listed register changes (batched
                       sampling; default budget 1024 cycles)
  set REG VAL          force a register through partial reconfiguration
  mem NAME ADDR        read one memory word
  trace SIGS N [f.vcd] single-step N cycles recording registers (any of them)
  inspect [prefix]     dump all registers under an instance prefix
  snapshot [save|restore]  capture / rewind full design state
  input PORT VAL       drive a top-level input (chip IO)
  status               paused flag, executed cycles, modeled cable time
  seek CYCLE           time-travel to a recorded cycle (exact state)
  rewind [n]           step recorded history back n cycles (default 1)
  reverse-continue|rc  run history backwards to the last trigger hit
  savestate NAME       name the current state for later loadstate
  loadstate NAME       restore a named savestate (forks a timeline if
                       the present has moved on)
  history              history engine status: cursor, tip, horizon
  timelines            list branch timelines (fork point, extent)
  scrub [n]            receive n history keyframe frames (remote v3 only)
  stream [n]           receive n ILA capture windows (remote v3 only;
                       needs an ILA design such as ila-counter)
  counters [n]         receive n aggregated server counter frames
                       (remote v3 only)
  compile              submit this design to the compile farm and wait
                       (shared content-addressed cache; repeat = hit)
  recompile [tag]      compile the tag-th canonical debug edit of the
                       design's partition against warm checkpoints
  compiles             list farm compile jobs (modeled times, digests)
  compiles cancel ID   release this client's hold on a compile job
  fleet                per-daemon health and load (zfleet coordinator)
  drain ADDR [off]     migrate a daemon's sessions away before
                       maintenance, or lift the drain (zfleet only)
  quit
`)
}
