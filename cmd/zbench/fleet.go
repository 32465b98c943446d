package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/faults"
	"zoomie/internal/fleet"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// fleetExp measures what the zfleet coordinator costs and what it buys:
// the forwarding tax on interactive latency versus talking to a daemon
// directly, the behavior at and past capacity (typed sheds, retry-after
// recovery), and the blast radius of a daemon kill under load — how
// long the victims stall while their sessions fail over, and whether
// the survivors notice.
func fleetExp(int) error {
	header("Fleet: coordinator overhead, overload shedding, failover blast radius")
	if err := fleetOverheadTable(); err != nil {
		return err
	}
	if err := fleetShedTable(); err != nil {
		return err
	}
	return fleetBlastTable()
}

// fleetBench stands up nDaemons zoomied instances (each behind a
// DaemonInjector) and one coordinator. Returns the fleet address, one
// daemon address (for direct-baseline comparisons), the injectors, and
// a cleanup func.
func fleetBench(nDaemons int, cfg fleet.Config) (*fleet.Coordinator, string, string, []*faults.DaemonInjector, func(), error) {
	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	injs := make([]*faults.DaemonInjector, nDaemons)
	byAddr := make(map[string]*faults.DaemonInjector)
	var firstDaemon string
	for i := 0; i < nDaemons; i++ {
		srv := server.New(server.Config{PoolSize: 24})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			cleanup()
			return nil, "", "", nil, nil, err
		}
		go srv.Serve(ln)
		cleanups = append(cleanups, srv.Shutdown)
		addr := ln.Addr().String()
		if i == 0 {
			firstDaemon = addr
		}
		injs[i] = faults.NewDaemonInjector()
		injs[i].SetDialTimeout(300 * time.Millisecond)
		byAddr[addr] = injs[i]
		cfg.Daemons = append(cfg.Daemons, addr)
	}
	cfg.DialFor = func(addr string) func(string, string) (net.Conn, error) {
		return byAddr[addr].Dial
	}
	cfg.HeartbeatEvery = 25 * time.Millisecond
	cfg.HeartbeatTimeout = 250 * time.Millisecond
	cfg.RequalifyBackoff = 25 * time.Millisecond
	co, err := fleet.New(cfg)
	if err != nil {
		cleanup()
		return nil, "", "", nil, nil, err
	}
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cleanup()
		return nil, "", "", nil, nil, err
	}
	go co.Serve(fln)
	cleanups = append(cleanups, co.Shutdown)
	fa := fln.Addr().String()

	// Wait for qualification.
	c, err := client.Dial(fa)
	if err != nil {
		cleanup()
		return nil, "", "", nil, nil, err
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, rerr := c.Call(&wire.Request{Op: wire.OpFleetStat})
		if rerr == nil && resp.Stats != nil && int(resp.Stats.PoolCapacity) > 0 {
			healthy := 0
			for _, l := range resp.Lines {
				if containsWord(l, "healthy") {
					healthy++
				}
			}
			if healthy >= nDaemons {
				return co, fa, firstDaemon, injs, cleanup, nil
			}
		}
		if time.Now().After(deadline) {
			cleanup()
			return nil, "", "", nil, nil, fmt.Errorf("fleet never qualified %d daemons", nDaemons)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func containsWord(s, w string) bool {
	for i := 0; i+len(w) <= len(s); i++ {
		if s[i:i+len(w)] == w {
			return true
		}
	}
	return false
}

// fleetOverheadTable compares attach and command latency through the
// coordinator against a direct daemon connection: the forwarding tax.
func fleetOverheadTable() error {
	_, fa, da, _, cleanup, err := fleetBench(2, fleet.Config{MaxPerDaemon: 24})
	if err != nil {
		return err
	}
	defer cleanup()

	const nClients, nCmds = 8, 200
	measure := func(addr string) (attach, cmd []time.Duration, err error) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		errs := make(chan error, nClients)
		for i := 0; i < nClients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, derr := client.Dial(addr)
				if derr != nil {
					errs <- derr
					return
				}
				defer c.Close()
				t0 := time.Now()
				s, aerr := c.Attach("counter")
				dAttach := time.Since(t0)
				if aerr != nil {
					errs <- aerr
					return
				}
				local := make([]time.Duration, 0, nCmds)
				for j := 0; j < nCmds; j++ {
					t1 := time.Now()
					if _, perr := s.Peek("cnt"); perr != nil {
						errs <- perr
						return
					}
					local = append(local, time.Since(t1))
				}
				s.Detach()
				mu.Lock()
				attach = append(attach, dAttach)
				cmd = append(cmd, local...)
				mu.Unlock()
			}()
		}
		wg.Wait()
		select {
		case e := <-errs:
			return nil, nil, e
		default:
		}
		return attach, cmd, nil
	}

	dAttach, dCmd, err := measure(da)
	if err != nil {
		return err
	}
	fAttach, fCmd, err := measure(fa)
	if err != nil {
		return err
	}

	fmt.Println()
	fmt.Printf("%-26s %12s %12s %12s %12s\n",
		"forwarding tax", "attach p50", "attach p99", "peek p50", "peek p99")
	fmt.Printf("%-26s %12v %12v %12v %12v\n", "direct daemon",
		percentile(dAttach, 0.50).Round(time.Microsecond),
		percentile(dAttach, 0.99).Round(time.Microsecond),
		percentile(dCmd, 0.50).Round(time.Microsecond),
		percentile(dCmd, 0.99).Round(time.Microsecond))
	fmt.Printf("%-26s %12v %12v %12v %12v\n", "via zfleet (2 daemons)",
		percentile(fAttach, 0.50).Round(time.Microsecond),
		percentile(fAttach, 0.99).Round(time.Microsecond),
		percentile(fCmd, 0.50).Round(time.Microsecond),
		percentile(fCmd, 0.99).Round(time.Microsecond))
	return nil
}

// fleetShedTable drives more attaches than the fleet has capacity for:
// the overflow must be refused fast with CodeOverloaded, and clients
// retrying after the retry-after hint must all land once earlier
// sessions release.
func fleetShedTable() error {
	_, fa, _, _, cleanup, err := fleetBench(2, fleet.Config{MaxPerDaemon: 2, RetryAfterMS: 25})
	if err != nil {
		return err
	}
	defer cleanup()

	// Phase 1: naive burst of 16 attaches against capacity 4.
	const nBurst = 16
	var mu sync.Mutex
	admitted, shed := 0, 0
	var shedLat []time.Duration
	var sessions []*client.Session
	var wg sync.WaitGroup
	for i := 0; i < nBurst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, derr := client.Dial(fa)
			if derr != nil {
				return
			}
			t0 := time.Now()
			s, aerr := c.Attach("counter")
			d := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if aerr == nil {
				admitted++
				sessions = append(sessions, s)
			} else if wire.IsCode(aerr, wire.CodeOverloaded) {
				shed++
				shedLat = append(shedLat, d)
				c.Close()
			}
		}()
	}
	wg.Wait()

	// Phase 2: retry clients with backoff while capacity drains.
	const nRetry = 8
	var retryLat []time.Duration
	retryOK := 0
	var rwg sync.WaitGroup
	for i := 0; i < nRetry; i++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			c, derr := client.Dial(fa)
			if derr != nil {
				return
			}
			defer c.Close()
			t0 := time.Now()
			sid, aerr := attachRetrying(c, "counter")
			if aerr == nil {
				mu.Lock()
				retryOK++
				retryLat = append(retryLat, time.Since(t0))
				mu.Unlock()
				c.Call(&wire.Request{Op: wire.OpDetach, Session: sid})
			}
		}()
	}
	// Release the held sessions gradually so retriers win slots.
	go func() {
		for _, s := range sessions {
			time.Sleep(50 * time.Millisecond)
			s.Detach()
		}
	}()
	rwg.Wait()

	fmt.Println()
	fmt.Printf("%-26s %10s %10s %14s %14s %12s\n",
		"overload (cap=4)", "admitted", "shed", "shed p99", "retry ok", "retry p99")
	fmt.Printf("%-26s %10d %10d %14v %10d/%d %14v\n",
		fmt.Sprintf("burst=%d retry=%d", nBurst, nRetry),
		admitted, shed,
		percentile(shedLat, 0.99).Round(time.Microsecond),
		retryOK, nRetry,
		percentile(retryLat, 0.99).Round(time.Millisecond))
	return nil
}

// attachRetrying attaches a design and returns its session id, retrying
// a shed attach up to 100 times. Each retry waits the retry-after hint
// the shed response carries in Value, doubled per attempt up to 5 s,
// plus up to 50% random jitter, so shed clients spread out instead of
// colliding again on the same tick.
func attachRetrying(c *client.Client, design string) (uint64, error) {
	for attempt := 0; ; attempt++ {
		resp, err := c.Call(&wire.Request{Op: wire.OpAttach, Design: design})
		if err == nil {
			return resp.Session, nil
		}
		if attempt == 100 || !wire.IsCode(err, wire.CodeOverloaded) {
			return 0, err
		}
		d := min(time.Duration(resp.Value)*time.Millisecond<<min(attempt, 16), 5*time.Second)
		time.Sleep(d + time.Duration(rand.Int63n(int64(d)/2+1)))
	}
}

// fleetBlastTable kills one of two daemons under live load and measures
// the blast radius: per-session worst command stall, split by whether
// the session was homed on the victim.
func fleetBlastTable() error {
	co, fa, _, injs, cleanup, err := fleetBench(2, fleet.Config{MaxPerDaemon: 16, CheckpointEvery: 4})
	if err != nil {
		return err
	}
	defer cleanup()

	const nSessions = 8
	const runFor = 2 * time.Second
	const killAt = 500 * time.Millisecond

	type result struct {
		maxStall time.Duration
		errs     int
	}
	results := make([]result, nSessions)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, derr := client.Dial(fa)
			if derr != nil {
				results[i].errs++
				return
			}
			defer c.Close()
			s, aerr := c.Attach("counter")
			if aerr != nil {
				results[i].errs++
				return
			}
			for time.Since(start) < runFor {
				t0 := time.Now()
				if serr := s.Step(1); serr != nil {
					results[i].errs++
					return
				}
				if d := time.Since(t0); d > results[i].maxStall {
					results[i].maxStall = d
				}
			}
		}(i)
	}
	time.Sleep(killAt)
	injs[0].Kill()
	wg.Wait()

	// The coordinator's own counters say how many sessions actually rode
	// a failover; the per-session worst stall says what the client felt.
	failovers := co.Obs().Counter("zfleet.failovers").Load()
	var stalls []time.Duration
	failed := 0
	for _, r := range results {
		if r.errs > 0 {
			failed++
			continue
		}
		stalls = append(stalls, r.maxStall)
	}
	var meanFailover time.Duration
	if failovers > 0 {
		meanFailover = time.Duration(co.Obs().Counter("zfleet.failover_ns").Load() / failovers)
	}

	fmt.Println()
	fmt.Printf("%-26s %10s %12s %14s %14s %8s\n",
		"blast radius (kill 1 of 2)", "sessions", "failed over", "failover mean", "worst stall", "errors")
	fmt.Printf("%-26s %10d %12d %14v %14v %8d\n",
		fmt.Sprintf("kill@%v", killAt),
		nSessions, failovers,
		meanFailover.Round(time.Millisecond),
		percentile(stalls, 1.0).Round(time.Millisecond),
		failed)
	return nil
}
