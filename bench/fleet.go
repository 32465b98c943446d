package main

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/faults"
	"zoomie/internal/fleet"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// fleet_failover: two daemons, each behind a faults.DaemonInjector, under
// one zfleet coordinator; the load connections run peek_remote's mix
// through the coordinator while a seeded schedule kills the daemon
// hosting client 0 every 300-500 ms and heals it once the failovers have
// happened.
const (
	fleetDaemons    = 2
	fleetBlockOps   = 100
	fleetKillMin    = 300 * time.Millisecond
	fleetKillSpread = 200 * time.Millisecond
	fleetDirectOps  = 1000 // prefix replayed straight at a daemon for the forwarding tax
	fleetWaitLimit  = 5 * time.Second
)

type fleetEnv struct {
	design  *servedDesign
	daemons []*daemon
	injs    []*faults.DaemonInjector
	co      *fleet.Coordinator
	served  chan error
	addr    string
	admin   *client.Client

	clients  []*client.Client
	sessions []*client.Session
	conns    []*tconn

	linkMu sync.Mutex
	links  []*linkConn
}

func startFleet(cfg runConfig) (env *fleetEnv, polled time.Duration, err error) {
	e := &fleetEnv{design: serveDesign(), served: make(chan error, 1)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	byAddr := map[string]*faults.DaemonInjector{}
	var addrs []string
	for i := 0; i < fleetDaemons; i++ {
		// Killed daemons keep their orphaned sessions until the idle
		// timeout reaps them; a short timeout keeps the pools small.
		d, err := startDaemon(server.Config{PoolSize: 16, IdleTimeout: time.Second})
		if err != nil {
			return nil, 0, err
		}
		inj := faults.NewDaemonInjector()
		inj.SetDialTimeout(300 * time.Millisecond)
		e.daemons = append(e.daemons, d)
		e.injs = append(e.injs, inj)
		byAddr[d.addr] = inj
		addrs = append(addrs, d.addr)
	}
	e.co, err = fleet.New(fleet.Config{
		Daemons: addrs,
		DialFor: func(addr string) func(string, string) (net.Conn, error) {
			inj := byAddr[addr]
			return func(network, a string) (net.Conn, error) {
				c, err := inj.Dial(network, a)
				if err != nil || !cfg.trace {
					return c, err
				}
				lc := &linkConn{Conn: c}
				e.linkMu.Lock()
				e.links = append(e.links, lc)
				e.linkMu.Unlock()
				return lc, nil
			}
		},
		CheckpointEvery:  8,
		HeartbeatEvery:   25 * time.Millisecond,
		HeartbeatTimeout: 250 * time.Millisecond,
		RequalifyBackoff: 25 * time.Millisecond,
	})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	e.addr = ln.Addr().String()
	go func() { e.served <- e.co.Serve(ln) }()
	if e.admin, err = client.Dial(e.addr); err != nil {
		return nil, 0, err
	}
	if polled, err = e.waitQualified(); err != nil {
		return nil, 0, err
	}
	e.clients, e.sessions, e.conns, err = attachClients(e.addr, e.design.name, cfg.clients, cfg.trace)
	if err != nil {
		return nil, 0, err
	}
	return e, polled, nil
}

// waitQualified polls until every daemon is healthy and returns the time
// spent sleeping between polls.
func (e *fleetEnv) waitQualified() (time.Duration, error) {
	var slept time.Duration
	deadline := time.Now().Add(10 * time.Second)
	for {
		counts, states, err := e.daemonStat()
		if err == nil && len(counts) == fleetDaemons && states == fleetDaemons {
			return slept, nil
		}
		if time.Now().After(deadline) {
			return slept, fmt.Errorf("fleet never qualified %d daemons", fleetDaemons)
		}
		time.Sleep(5 * time.Millisecond)
		slept += 5 * time.Millisecond
	}
}

// daemonStat reads the coordinator's per-daemon rows: the sessions homed
// on each daemon (in daemon order) and how many daemons are healthy.
func (e *fleetEnv) daemonStat() ([]int, int, error) {
	resp, err := e.admin.Call(&wire.Request{Op: wire.OpFleetStat})
	if err != nil {
		return nil, 0, err
	}
	index := map[string]int{}
	for i, d := range e.daemons {
		index[d.addr] = i
	}
	counts := make([]int, len(e.daemons))
	healthy := 0
	for _, l := range resp.Lines {
		f := strings.Fields(l)
		if len(f) < 3 {
			continue
		}
		i, ok := index[f[0]]
		if !ok {
			continue
		}
		if f[1] == "healthy" {
			healthy++
		}
		fmt.Sscanf(f[2], "sessions=%d", &counts[i])
	}
	return counts, healthy, nil
}

func (e *fleetEnv) close() {
	closeClients(e.clients)
	if e.admin != nil {
		e.admin.Close()
	}
	if e.co != nil {
		e.co.Shutdown()
		if e.addr != "" {
			<-e.served
		}
	}
	for _, d := range e.daemons {
		d.stop()
	}
	e.design.close()
}

// killLoop kills the daemon hosting the most sessions (client 0's, at
// first) every 300-500 ms, waits for its sessions to fail over, heals it
// and waits for it to requalify. It returns the kill times (unix ns) once
// stop closes, with every daemon healed.
func (e *fleetEnv) killLoop(seed int64, stop <-chan struct{}) []int64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 41))
	failovers := e.co.Obs().Counter("zfleet.failovers")
	requalified := e.co.Obs().Counter("zfleet.requalified")
	defer func() {
		for _, inj := range e.injs {
			inj.Heal()
		}
	}()
	var kills []int64
	for {
		select {
		case <-stop:
			return kills
		case <-time.After(fleetKillMin + time.Duration(rng.Int63n(int64(fleetKillSpread)))):
		}
		counts, _, err := e.daemonStat()
		if err != nil {
			continue
		}
		victim := 0
		for i, n := range counts {
			if n > counts[victim] {
				victim = i
			}
		}
		if counts[victim] == 0 {
			continue
		}
		f0, r0 := failovers.Load(), requalified.Load()
		kills = append(kills, time.Now().UnixNano())
		e.injs[victim].Kill()
		waitUntil(stop, func() bool { return failovers.Load() >= f0+uint64(counts[victim]) })
		e.injs[victim].Heal()
		waitUntil(stop, func() bool { return requalified.Load() > r0 })
	}
}

// waitUntil polls cond every millisecond until it holds, stop closes or
// fleetWaitLimit passes.
func waitUntil(stop <-chan struct{}, cond func() bool) {
	deadline := time.Now().Add(fleetWaitLimit)
	for !cond() && time.Now().Before(deadline) {
		select {
		case <-stop:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

func runFleetFailover(cfg runConfig) (*runResult, error) {
	res := newResult()
	env, setup, err := setupMedian(func() (*fleetEnv, time.Duration, error) { return startFleet(cfg) }, (*fleetEnv).close)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res.set("setup_s", setup)
	closed := false
	defer func() {
		if !closed {
			env.close()
		}
	}()

	twins := make([]*zoomie.Session, cfg.clients)
	for i := range twins {
		if twins[i], err = newTwin(); err != nil {
			return nil, fmt.Errorf("twin: %w", err)
		}
	}
	regs := userRegs(twins[0])
	obs := env.co.Obs()
	counter := func(name string) uint64 { return obs.Counter(name).Load() }
	before := map[string]uint64{}
	for _, n := range obs.Names() {
		before[n] = counter(n)
	}
	statsBefore := daemonStats(env.daemons)

	stop := make(chan struct{})
	killsCh := make(chan []int64, 1)
	go func() { killsCh <- env.killLoop(cfg.seed, stop) }()
	win := newWindow(cfg, fleetBlockOps)
	win.measureHeap(cfg.clients)
	logs := make([]*clientLog, cfg.clients)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := opHooks{failovers: func() uint64 { return counter("zfleet.failovers") }}
			if cfg.trace {
				h.conn = env.conns[c]
			}
			logs[c] = driveRemote(win, env.sessions[c], newDebugScript(cfg.seed, c, regs), regs, h)
		}(c)
	}
	wg.Wait()
	window := win.elapsed()
	res.set("heap_live_mb", win.heapMB)
	close(stop)
	kills := <-killsCh
	delta := func(name string) float64 { return float64(counter(name) - before[name]) }

	mm := &mismatches{workload: cfg.workload, seed: cfg.seed}
	replays := replayAll(twins, cfg, regs, logs, mm)
	setDebugEndToEnd(res, logs, replays, window, cfg.ops, mm)
	res.inexact["modeled_ms_per_op"] = true // which status intervals span a kill varies
	res.notes = append(res.notes, mm.lines...)
	stall := failoverStalls(logs[0], kills)
	res.set("failover_stall_p50_ms", median(stall))
	res.note("kills=%d failovers=%.0f", len(kills), delta("zfleet.failovers"))
	if !cfg.trace {
		return res, nil
	}

	ops := float64(res.attempted)
	failovers := delta("zfleet.failovers")
	res.set("fleet.failovers", failovers)
	res.set("fleet.failover_mean_ms", ratio(delta("zfleet.failover_ns")/1e6, failovers))
	res.set("fleet.checkpoints_per_op", delta("zfleet.checkpoints")/ops)
	res.set("fleet.journal_replays", delta("zfleet.journal_replays"))

	// The forwarding tax: the same script prefix straight at a daemon.
	direct, err := directPrefix(env.daemons[0].addr, env.design.name, cfg, regs)
	if err != nil {
		return nil, fmt.Errorf("direct baseline: %w", err)
	}
	var viaFleet []float64
	for _, l := range logs {
		traced := map[int]bool{}
		for _, t := range l.traced {
			traced[t.idx] = true
		}
		for i := 0; i < min(len(l.lat), fleetDirectOps); i++ {
			if !traced[i] {
				viaFleet = append(viaFleet, l.lat[i])
			}
		}
	}
	res.set("fleet.forward_p50_us", median(viaFleet)-median(direct))

	sessions := env.design.born.count() - cfg.clients // the direct baseline's sessions are not the workload's
	env.close()
	closed = true
	statsAfter := daemonStats(env.daemons)
	res.set("server.replay_hits", float64(statsAfter.ReplayHits-statsBefore.ReplayHits))
	res.set("server.migrations", float64(statsAfter.Migrations-statsBefore.Migrations))
	res.set("jtag.retries_per_op", float64(statsAfter.JtagRetries-statsBefore.JtagRetries)/ops)
	res.set("jtag.rereads_per_op", float64(statsAfter.JtagReReads-statsBefore.JtagReReads)/ops)
	res.set("jtag.rewrites_per_op", float64(statsAfter.JtagRewrites-statsBefore.JtagRewrites)/ops)
	setServerWork(res, env.design.born.total(sessions), replays, ops)
	if err := setWireMetrics(res, env.conns, logs); err != nil {
		return nil, err
	}
	if err := setSampledMetrics(res, twins[0], twins[0]); err != nil {
		return nil, err
	}

	links := linkSamples(env.links)
	byKey := map[string][]linkSample{}
	for _, s := range links {
		byKey[s.key] = append(byKey[s.key], s)
	}
	tr := &tracer{}
	var call, resid, link []float64
	for c, l := range logs {
		keys := tracedKeys(cfg.seed, c, regs, l)
		for j, t := range l.traced {
			call = append(call, float64(t.end-t.start)/1e3)
			if t.wrote == 0 || t.read == 0 {
				continue
			}
			resid = append(resid, float64(t.read-t.wrote)/1e3)
			ls, ok := matchLink(byKey[keys[j]], t)
			if !ok {
				continue
			}
			link = append(link, float64(ls.recv-ls.sent)/1e3)
			req := tr.request(true)
			name := fmt.Sprintf("c%d.%d", c, t.idx)
			kind := l.kinds[t.idx].String()
			root := tr.add(req, 0, "client."+kind, name, t.start, t.end, false, map[string]int64{"bytes": t.bytes})
			front := tr.add(req, root, "fleet.residency", name, t.wrote, t.read, false, nil)
			srv := tr.add(req, front, "server.link", name, ls.sent, ls.recv, false, nil)
			tw := int64(replays[c].dur[t.idx] * 1e3)
			tr.add(req, srv, "zoomie."+kind, name, ls.recv-tw, ls.recv, true, nil)
		}
	}
	res.set("client.call_p50_us", median(call))
	res.set("server.residency_p50_us", median(resid))
	res.set("fleet.daemon_link_p50_us", median(link))
	res.note("daemon link round trips matched to %d of %d traced ops", len(link), len(call))
	setTwinOpMetrics(res, logs, replays)
	tr.setSelfMetrics(res, untracedP50(logs))
	return res, finishTrace(res, tr, cfg)
}

// daemonStats sums the daemons' counters.
func daemonStats(ds []*daemon) wire.Stats {
	var sum wire.Stats
	for _, d := range ds {
		s := d.srv.Stats()
		sum.ReplayHits += s.ReplayHits
		sum.Migrations += s.Migrations
		sum.JtagRetries += s.JtagRetries
		sum.JtagReReads += s.JtagReReads
		sum.JtagRewrites += s.JtagRewrites
	}
	return sum
}

// failoverStalls returns, for each kill, the longest latency (ms) of the
// victim client's ops that completed before the next kill.
func failoverStalls(l *clientLog, kills []int64) []float64 {
	var out []float64
	for k, at := range kills {
		next := int64(1<<63 - 1)
		if k+1 < len(kills) {
			next = kills[k+1]
		}
		worst := 0.0
		for i, start := range l.start {
			end := start + int64(l.lat[i]*1e3)
			if end >= at && end < next && l.lat[i] > worst {
				worst = l.lat[i]
			}
		}
		out = append(out, worst/1e3)
	}
	return out
}

// directPrefix runs each client's first fleetDirectOps ops (at most -ops)
// against a daemon directly, on fresh sessions, and returns the
// latencies in µs.
func directPrefix(addr, design string, cfg runConfig, regs []regInfo) ([]float64, error) {
	clients, sessions, _, err := attachClients(addr, design, cfg.clients, false)
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)
	direct := runConfig{ops: min(cfg.ops, fleetDirectOps)}
	win := newWindow(direct, 1)
	logs := make([]*clientLog, len(sessions))
	var wg sync.WaitGroup
	for c := range sessions {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = driveRemote(win, sessions[c], newDebugScript(cfg.seed, c, regs), regs, opHooks{})
		}(c)
	}
	wg.Wait()
	return latencies(logs), nil
}

// tracedKeys regenerates a client's script and returns the request key of
// each traced op, in l.traced order.
func tracedKeys(seed int64, client int, regs []regInfo, l *clientLog) []string {
	keys := make([]string, 0, len(l.traced))
	scr := newDebugScript(seed, client, regs)
	next := 0
	for i := 0; next < len(l.traced); i++ {
		op := scr.next()
		if l.traced[next].idx == i {
			keys = append(keys, opKey(op, regs))
			next++
		}
	}
	return keys
}

// matchLink finds the daemon-link round trip a traced front op caused:
// same request content, sent after the front request was written and
// answered before the front response started.
func matchLink(cands []linkSample, t tracedOp) (linkSample, bool) {
	j := sort.Search(len(cands), func(j int) bool { return cands[j].sent >= t.wrote })
	if j < len(cands) && cands[j].recv <= t.read {
		return cands[j], true
	}
	return linkSample{}, false
}
