// Command zoomied is Zoomie's remote debug daemon — the board-side
// service that lets many developers share a shelf of (modeled) FPGAs the
// way gdbserver shares a target process. It serves the internal/wire
// protocol over TCP: clients attach catalog designs, each attached
// session gets a board leased from a fixed-capacity pool and its own
// actor goroutine, idle sessions are auto-detached so an abandoned
// client cannot hold a board forever, and breakpoint hits are pushed to
// subscribers as asynchronous events.
//
// Usage:
//
//	zoomied -listen :9620 -pool 4 -idle 5m
//	zoomied -designs counter,cohort          # allowlist
//	zoomied -chaos flip=0.01,exec=0.005      # fault-injected cables + self-healing pool
//	zoomie -connect localhost:9620           # then attach from the REPL
//
// SIGINT/SIGTERM shut down gracefully: running designs are paused, their
// clocks stopped, and every board returns to the pool. -stats dumps the
// expvar-style counter JSON to stderr on shutdown.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zoomie/internal/faults"
	"zoomie/internal/server"
)

func main() {
	listen := flag.String("listen", ":9620", "TCP address to serve the wire protocol on")
	pool := flag.Int("pool", 4, "number of modeled boards in the pool")
	idle := flag.Duration("idle", 5*time.Minute, "auto-detach sessions idle for this long")
	designs := flag.String("designs", "", "comma-separated design allowlist (empty = full catalog)")
	stats := flag.Bool("stats", false, "dump the counter JSON to stderr on shutdown")
	quiet := flag.Bool("quiet", false, "suppress per-session log lines")
	chaos := flag.String("chaos", "", "fault-injection profile, e.g. 'flip=0.01,exec=0.005,seed=42' (keys: "+faults.ProfileKeys()+")")
	probe := flag.Duration("probe", 0, "board health-probe interval (0 = 2s under -chaos, else disabled)")
	cooldown := flag.Duration("cooldown", time.Minute, "quarantined-board requalification cooldown")
	compileCache := flag.Int("compile-cache", 0, "compile-farm checkpoint store capacity in entries (0 = unbounded)")
	flag.Parse()

	cfg := server.Config{
		PoolSize:           *pool,
		IdleTimeout:        *idle,
		ProbeInterval:      *probe,
		QuarantineCooldown: *cooldown,
		CompileCacheCap:    *compileCache,
	}
	if *chaos != "" {
		p, err := faults.ParseProfile(*chaos)
		if err != nil {
			log.Fatalf("zoomied: -chaos: %v", err)
		}
		cfg.Chaos = &p
		if cfg.ProbeInterval == 0 {
			cfg.ProbeInterval = 2 * time.Second
		}
	}
	if *designs != "" {
		for _, d := range strings.Split(*designs, ",") {
			if d = strings.TrimSpace(d); d != "" {
				cfg.Allow = append(cfg.Allow, d)
			}
		}
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}

	srv := server.New(cfg)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	catalog := cfg.Allow
	if len(catalog) == 0 {
		catalog = server.CatalogNames()
	}
	log.Printf("zoomied: serving %v on %s (pool %d, idle timeout %v)",
		catalog, ln.Addr(), *pool, *idle)
	if cfg.Chaos != nil {
		log.Printf("zoomied: CHAOS MODE: injecting %v per board, probing every %v",
			cfg.Chaos, cfg.ProbeInterval)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("zoomied: %v, shutting down", s)
		srv.Shutdown()
		<-serveErr
	case err := <-serveErr:
		if err != nil {
			log.Fatal(err)
		}
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "zoomied: final counters:")
		srv.WriteStats(os.Stderr)
	}
}
