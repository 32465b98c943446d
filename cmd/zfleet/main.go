// Command zfleet is the federated board-farm coordinator: one frontend
// over many zoomied daemons, each daemon a failure domain. Clients
// connect to zfleet exactly as they would to a single zoomied — the
// wire protocol and the REPL work unchanged — while the coordinator
// heartbeats the daemons, places
// sessions on the least-loaded one behind admission control (per-daemon
// caps plus a fleet-wide token bucket; over capacity, new attaches shed
// fast with a typed overload error and retry-after hint), checkpoints
// every session's full debug state (snapshot + time-travel history),
// and when a daemon dies, partitions or wedges, rebuilds its sessions
// on a healthy daemon from checkpoint + deterministic journal replay —
// breakpoints, pause state and history intact.
//
// Usage:
//
//	zoomied -listen :9701 &
//	zoomied -listen :9702 &
//	zfleet -listen :9700 -daemons localhost:9701,localhost:9702
//	zoomie -connect localhost:9700     # then attach as usual
//
// The fleet admin surface rides the same protocol: the REPL's `fleet`
// command (OpFleetStat) shows per-daemon health and load, and
// `drain <addr>` (OpFleetDrain) migrates a daemon's sessions away
// before maintenance.
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zoomie/internal/fleet"
)

func main() {
	listen := flag.String("listen", ":9700", "TCP address to serve the wire protocol on")
	daemons := flag.String("daemons", "", "comma-separated zoomied addresses to federate (required)")
	perDaemon := flag.Int("cap", 8, "max concurrently placed sessions per daemon")
	rate := flag.Float64("rate", 64, "fleet-wide admission rate, attaches per second")
	burst := flag.Int("burst", 16, "admission token-bucket depth")
	hb := flag.Duration("hb", 250*time.Millisecond, "daemon heartbeat interval")
	hbTimeout := flag.Duration("hbtimeout", time.Second, "per-heartbeat probe timeout")
	suspect := flag.Int("suspect", 3, "consecutive missed heartbeats before a daemon is declared dead")
	checkpoint := flag.Int("checkpoint", 8, "journaled commands between session checkpoint refreshes")
	quiet := flag.Bool("quiet", false, "suppress lifecycle log lines")
	flag.Parse()

	cfg := fleet.Config{
		MaxPerDaemon:     *perDaemon,
		AttachRate:       *rate,
		AttachBurst:      *burst,
		HeartbeatEvery:   *hb,
		HeartbeatTimeout: *hbTimeout,
		SuspectAfter:     *suspect,
		CheckpointEvery:  *checkpoint,
	}
	for _, a := range strings.Split(*daemons, ",") {
		if a = strings.TrimSpace(a); a != "" {
			cfg.Daemons = append(cfg.Daemons, a)
		}
	}
	if len(cfg.Daemons) == 0 {
		log.Fatal("zfleet: -daemons is required (comma-separated zoomied addresses)")
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}

	co, err := fleet.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("zfleet: coordinating %d daemon(s) on %s", len(cfg.Daemons), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("zfleet: shutting down")
		co.Shutdown()
	}()

	if err := co.Serve(ln); err != nil {
		log.Fatal(err)
	}
	co.Shutdown()
}
