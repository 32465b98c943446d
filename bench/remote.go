package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"zoomie"
	"zoomie/internal/bitstream"
	"zoomie/internal/client"
	"zoomie/internal/faults"
	"zoomie/internal/server"
)

// serverSessions records every session a served design brings up inside
// a server — attaches, failover imports and board migrations alike — with
// its cable counters at birth. Read after the owning servers shut down,
// they give the configuration-plane work the system actually did.
type serverSessions struct {
	mu   sync.Mutex
	list []bornSession
}

type bornSession struct {
	zs   *zoomie.Session
	base cableCounters
}

func (b *serverSessions) add(s *zoomie.Session) {
	b.mu.Lock()
	b.list = append(b.list, bornSession{s, readCounters(s)})
	b.mu.Unlock()
}

func (b *serverSessions) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.list)
}

// total sums the first n recorded sessions' counters since birth. Call it
// only after the servers that own the sessions have shut down.
func (b *serverSessions) total(n int) cableCounters {
	b.mu.Lock()
	defer b.mu.Unlock()
	var sum cableCounters
	for _, s := range b.list[:n] {
		sum = sum.add(readCounters(s.zs).sub(s.base))
	}
	return sum
}

// servedDesign is the benchmark design registered in the server catalog
// under a name of its own, so that runs sharing a process (the tests)
// keep their sessions apart.
type servedDesign struct {
	name string
	born serverSessions
}

var servedSeq atomic.Int64

func serveDesign() *servedDesign {
	d := &servedDesign{name: fmt.Sprintf("%s-%d", designName, servedSeq.Add(1))}
	server.Register(d.name, server.Entry{
		Describe: "ManycoreSoC(48), the zperf debug design",
		Build:    buildDesign,
		Init: func(s *zoomie.Session) error {
			d.born.add(s)
			return initSession(s)
		},
	})
	return d
}

func (d *servedDesign) close() { server.Unregister(d.name) }

// daemon is one in-process zoomied on loopback.
type daemon struct {
	srv    *server.Server
	addr   string
	served chan error
}

func startDaemon(cfg server.Config) (*daemon, error) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	d := &daemon{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- srv.Serve(ln) }()
	return d, nil
}

func (d *daemon) stop() {
	d.srv.Shutdown()
	<-d.served
}

// remoteEnv is one peek_remote/chaos_remote system: a daemon and the
// load connections, each with its own attached, paused session.
type remoteEnv struct {
	design   *servedDesign
	d        *daemon
	clients  []*client.Client
	sessions []*client.Session
	conns    []*tconn // traced wrappers, in client order
}

func (e *remoteEnv) close() {
	closeClients(e.clients)
	e.d.stop()
	e.design.close()
}

// attachRetries bounds attach attempts per connection. Booting a whole
// image over chaos_remote's faulty link can exhaust the cable's retry
// budget; the server derives a fresh fault seed for every board, so an
// attach retried the way a user would retry it lands on a new pattern.
const attachRetries = 5

// attachClients dials addr n times and attaches one paused session per
// connection. Attaches run one after another, so each session's chaos
// seed (derived per board in attach order) is the same in every run.
func attachClients(addr, design string, n int, trace bool) ([]*client.Client, []*client.Session, []*tconn, error) {
	var clients []*client.Client
	var sessions []*client.Session
	var conns []*tconn
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		var opts client.Options
		if trace {
			opts.Dial = tracedDial(&conns, &mu)
		}
		c, err := client.DialOptions(addr, opts)
		if err != nil {
			closeClients(clients)
			return nil, nil, nil, err
		}
		clients = append(clients, c)
		var s *client.Session
		for try := 0; try < attachRetries; try++ {
			if s, err = c.Attach(design); err == nil {
				break
			}
		}
		if err == nil {
			err = s.Pause()
		}
		if err != nil {
			closeClients(clients)
			return nil, nil, nil, err
		}
		sessions = append(sessions, s)
	}
	return clients, sessions, conns, nil
}

func closeClients(cs []*client.Client) {
	for _, c := range cs {
		c.Close()
	}
}

func startRemote(cfg runConfig, chaos *faults.Profile) (*remoteEnv, error) {
	design := serveDesign()
	d, err := startDaemon(server.Config{PoolSize: cfg.clients + 2, Chaos: chaos})
	if err != nil {
		design.close()
		return nil, err
	}
	clients, sessions, conns, err := attachClients(d.addr, design.name, cfg.clients, cfg.trace)
	if err != nil {
		d.stop()
		design.close()
		return nil, err
	}
	return &remoteEnv{design: design, d: d, clients: clients, sessions: sessions, conns: conns}, nil
}

// setupMedian brings a system up setupRepeats times, tearing down all but
// the last, and returns the last with the median setup time in seconds.
// up reports any time it spent polling for readiness, which is excluded.
func setupMedian[E any](up func() (E, time.Duration, error), down func(E)) (E, float64, error) {
	var env E
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			down(env)
		}
		t0 := time.Now()
		var polled time.Duration
		var err error
		env, polled, err = up()
		if err != nil {
			return env, 0, err
		}
		times = append(times, (time.Since(t0) - polled).Seconds())
	}
	return env, median(times), nil
}

// noPoll adapts a setup that never polls to setupMedian.
func noPoll[E any](up func() (E, error)) func() (E, time.Duration, error) {
	return func() (E, time.Duration, error) {
		env, err := up()
		return env, 0, err
	}
}

func runPeekRemote(cfg runConfig) (*runResult, error) { return runRemote(cfg, nil) }

// chaosProfile is chaos_remote's link: flips and transient exec errors,
// no probes and no wedges, so the fault pattern — and every modeled
// number — is a function of the seed.
func chaosProfile(seed int64) (*faults.Profile, error) {
	p, err := faults.ParseProfile("flip=0.005,exec=0.0025")
	if err != nil {
		return nil, err
	}
	p.Seed = seed
	return &p, nil
}

func runChaosRemote(cfg runConfig) (*runResult, error) {
	p, err := chaosProfile(cfg.seed)
	if err != nil {
		return nil, err
	}
	return runRemote(cfg, p)
}

// How many consecutive ops a traced run traces (or leaves untraced) per
// block; multiples of the 20-op mix block.
const (
	remoteBlockOps = 200
	chaosBlockOps  = 20
)

func runRemote(cfg runConfig, chaos *faults.Profile) (*runResult, error) {
	res := newResult()
	env, setup, err := setupMedian(noPoll(func() (*remoteEnv, error) { return startRemote(cfg, chaos) }), (*remoteEnv).close)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res.set("setup_s", setup)

	twins := make([]*zoomie.Session, cfg.clients)
	for i := range twins {
		if twins[i], err = newTwin(); err != nil {
			env.close()
			return nil, fmt.Errorf("twin: %w", err)
		}
	}
	regs := userRegs(twins[0])
	statsBefore := env.d.srv.Stats()

	block := remoteBlockOps
	if chaos != nil {
		block = chaosBlockOps
	}
	win := newWindow(cfg, block)
	win.measureHeap(cfg.clients)
	logs := make([]*clientLog, cfg.clients)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := opHooks{}
			if cfg.trace {
				h.conn = env.conns[c]
			}
			logs[c] = driveRemote(win, env.sessions[c], newDebugScript(cfg.seed, c, regs), regs, h)
		}(c)
	}
	wg.Wait()
	window := win.elapsed()
	res.set("heap_live_mb", win.heapMB)

	env.close()
	// After shutdown every session has retired into the server's totals,
	// work done after its last reply (a known-good capture) included.
	statsAfter := env.d.srv.Stats()
	serverWork := env.design.born.total(env.design.born.count())

	mm := &mismatches{workload: cfg.workload, seed: cfg.seed}
	replays := replayAll(twins, cfg, regs, logs, mm)
	setDebugEndToEnd(res, logs, replays, window, cfg.ops, mm)
	res.notes = append(res.notes, mm.lines...)
	if !cfg.trace {
		return res, nil
	}

	ops := float64(res.attempted)
	res.set("server.replay_hits", float64(statsAfter.ReplayHits-statsBefore.ReplayHits))
	res.set("server.migrations", float64(statsAfter.Migrations-statsBefore.Migrations))
	res.set("jtag.retries_per_op", float64(statsAfter.JtagRetries-statsBefore.JtagRetries)/ops)
	res.set("jtag.rereads_per_op", float64(statsAfter.JtagReReads-statsBefore.JtagReReads)/ops)
	res.set("jtag.rewrites_per_op", float64(statsAfter.JtagRewrites-statsBefore.JtagRewrites)/ops)
	res.set("faults.injected_per_op", float64(statsAfter.FaultsInjected-statsBefore.FaultsInjected)/ops)
	setServerWork(res, serverWork, replays, ops)
	if err := setWireMetrics(res, env.conns, logs); err != nil {
		return nil, err
	}

	link := twins[0]
	if chaos != nil {
		if link, err = newChaosSampler(chaos); err != nil {
			return nil, err
		}
	}
	if err := setSampledMetrics(res, link, twins[0]); err != nil {
		return nil, err
	}

	tr := &tracer{}
	for c, l := range logs {
		for _, t := range l.traced {
			if t.wrote == 0 || t.read == 0 {
				continue
			}
			req := tr.request(true)
			name := fmt.Sprintf("c%d.%d", c, t.idx)
			root := tr.add(req, 0, "client."+l.kinds[t.idx].String(), name, t.start, t.end, false,
				map[string]int64{"bytes": t.bytes})
			srv := tr.add(req, root, "server.residency", name, t.wrote, t.read, false, nil)
			tw := int64(replays[c].dur[t.idx] * 1e3)
			tr.add(req, srv, "zoomie."+l.kinds[t.idx].String(), name, t.read-tw, t.read, true, nil)
		}
	}
	setRemoteTraceMetrics(res, tr, logs, replays)
	return res, finishTrace(res, tr, cfg)
}

// replayAll replays every client on its own twin, concurrently (each
// twin is independent), and returns the per-client results.
func replayAll(twins []*zoomie.Session, cfg runConfig, regs []regInfo, logs []*clientLog, mm *mismatches) []twinReplay {
	out := make([]twinReplay, len(logs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := &mismatches{workload: mm.workload, seed: mm.seed}
			out[c] = replayTwin(twins[c], cfg.seed, c, regs, logs[c], cfg.ops, cfg.trace, local)
			mu.Lock()
			mm.lines = append(mm.lines, local.lines...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out
}

// setDebugEndToEnd reports the end-to-end metrics every remote debug
// workload shares. Every command is a headline op.
func setDebugEndToEnd(res *runResult, logs []*clientLog, replays []twinReplay, window time.Duration, prefix int, mm *mismatches) {
	lat := latencies(logs)
	res.attempted = int64(len(lat))
	for _, r := range replays {
		res.failed += r.failed
	}
	res.set("op_p50_us", percentile(lat, 0.50))
	res.set("op_p90_us", percentile(lat, 0.90))
	res.set("op_p99_us", percentile(lat, 0.99))
	res.set("op_samples", float64(len(lat)))
	res.set("ops_per_s", float64(len(lat))/window.Seconds())
	res.set("modeled_ms_per_op", modeledFromStatus(logs, prefix))
	res.set("error_rate", ratio(float64(res.failed), float64(res.attempted)))
	if int64(len(mm.lines)) < res.failed {
		res.note("(%d further mismatches not printed)", res.failed-int64(len(mm.lines)))
	}
}

// setServerWork reports the configuration-plane work the server-side
// sessions did, per op, against the work the clean twins did for the
// same ops.
func setServerWork(res *runResult, work cableCounters, replays []twinReplay, ops float64) {
	var twin, prefix cableCounters
	prefixOps := 0
	for _, r := range replays {
		twin = twin.add(r.total)
		prefix = prefix.add(r.prefix)
		prefixOps += r.prefixOps
	}
	res.set("dbg.readbacks_per_op", float64(prefix[cReadbacks])/float64(prefixOps))
	res.set("dbg.writebacks_per_op", float64(prefix[cWritebacks])/float64(prefixOps))
	res.set("jtag.useful_frame_ratio", ratio(float64(twin[cFramesRead]), float64(work[cFramesRead])))
	setBitstreamMetrics(res, work, ops)
}

// setBitstreamMetrics reports µc-chain activity per op and its modeled
// cost under the default cost model.
func setBitstreamMetrics(res *runResult, work cableCounters, ops float64) {
	cost := bitstream.DefaultCostModel()
	perOp := func(c int) float64 { return float64(work[c]) / ops }
	ms := func(n float64, d time.Duration) float64 { return n * float64(d) / float64(time.Millisecond) }
	frames := perOp(cFramesRead) + perOp(cFramesWritten)
	res.set("bitstream.frames_read_per_op", perOp(cFramesRead))
	res.set("bitstream.frames_written_per_op", perOp(cFramesWritten))
	res.set("bitstream.hops_per_op", perOp(cHops))
	res.set("bitstream.commands_per_op", perOp(cCommands))
	res.set("bitstream.frame_ms_per_op", ms(frames, cost.PerFrame))
	res.set("bitstream.hop_ms_per_op", ms(perOp(cHops), cost.PerHop))
	res.set("bitstream.command_ms_per_op", ms(perOp(cCommands), cost.PerCommand))
}

// setRemoteTraceMetrics reports the client, server and facade layers of
// a remote debug run.
func setRemoteTraceMetrics(res *runResult, tr *tracer, logs []*clientLog, replays []twinReplay) {
	var call, resid []float64
	for _, l := range logs {
		for _, t := range l.traced {
			call = append(call, float64(t.end-t.start)/1e3)
			if t.wrote != 0 && t.read != 0 {
				resid = append(resid, float64(t.read-t.wrote)/1e3)
			}
		}
	}
	res.set("client.call_p50_us", median(call))
	res.set("server.residency_p50_us", median(resid))
	setTwinOpMetrics(res, logs, replays)
	tr.setSelfMetrics(res, untracedP50(logs))
}

// setTwinOpMetrics reports the facade's median time per op kind, from
// the twin replay.
func setTwinOpMetrics(res *runResult, logs []*clientLog, replays []twinReplay) {
	byKind := map[opKind][]float64{}
	for c, l := range logs {
		for i, k := range l.kinds {
			byKind[k] = append(byKind[k], replays[c].dur[i])
		}
	}
	for k, name := range map[opKind]string{
		opPeek: "zoomie.peek_p50_us", opPeekBatch: "zoomie.peekbatch_p50_us",
		opPoke: "zoomie.poke_p50_us", opStep: "zoomie.step_p50_us",
	} {
		res.set(name, median(byKind[k]))
	}
}

// untracedP50 is the op median over the untraced blocks of a traced run.
func untracedP50(logs []*clientLog) float64 {
	var lat []float64
	for _, l := range logs {
		traced := make(map[int]bool, len(l.traced))
		for _, t := range l.traced {
			traced[t.idx] = true
		}
		for i, v := range l.lat {
			if !traced[i] {
				lat = append(lat, v)
			}
		}
	}
	return median(lat)
}

// finishTrace writes the trace file and notes where it went.
func finishTrace(res *runResult, tr *tracer, cfg runConfig) error {
	path, err := tr.write(cfg.traceDir, cfg.workload, cfg.seed)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	res.note("trace: %s", path)
	return nil
}

// newChaosSampler builds a session on a faulty link like the server's,
// for sampling what chaos costs per snapshot and frame. Like an attach, a
// boot that exhausts the cable's retries is retried on the next seed.
func newChaosSampler(p *faults.Profile) (*zoomie.Session, error) {
	var err error
	for try := int64(0); try < attachRetries; try++ {
		d, dcfg := buildDesign()
		prof := *p
		prof.Seed += try
		dcfg.Faults = faults.New(prof)
		var s *zoomie.Session
		if s, err = zoomie.Debug(d, dcfg); err != nil {
			continue
		}
		if err := initSession(s); err != nil {
			return nil, err
		}
		return s, s.Pause()
	}
	return nil, err
}
