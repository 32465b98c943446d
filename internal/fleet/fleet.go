// Package fleet is the federated board-farm coordinator: one process
// fronting many zoomied daemons. Clients reach it through the daemon's
// own serving layer (server.Hub: connection, hello, streams,
// broadcast), so `zoomie -connect` and internal/client work through it
// unchanged; the coordinator adds only its dispatch switch
// and forwarded stream kinds (front.go). Each daemon is a failure domain. The coordinator leases
// them with heartbeat probing (suspicion after consecutive misses,
// exponential-backoff requalification after quarantine), places new
// sessions on the least-loaded healthy daemon behind admission control
// (per-daemon in-flight caps plus a fleet-wide token bucket; over
// capacity, new attaches shed with a typed CodeOverloaded and a
// retry-after hint while existing sessions keep priority), and — the
// point of the exercise — fails sessions over across daemons: every
// session is periodically checkpointed (full-scope snapshot + encoded
// time-travel history via OpStateExport), mutating commands since the
// checkpoint are journaled, and when a daemon dies, partitions, or
// wedges, the session is rebuilt on a healthy daemon from checkpoint +
// deterministic journal replay — breakpoints, pause state and history
// intact, invisible to its client except for a session_migrated event.
package fleet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/obs"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// Config tunes the coordinator.
type Config struct {
	// Daemons lists the zoomied addresses to federate. Required.
	Daemons []string
	// MaxPerDaemon caps concurrently-placed sessions per daemon; attaches
	// beyond every daemon's cap shed with CodeOverloaded (default 8).
	MaxPerDaemon int
	// AttachRate is the fleet-wide token-bucket refill in admissions per
	// second (default 64). AttachBurst is the bucket depth (default 16).
	AttachRate  float64
	AttachBurst int
	// RetryAfterMS is the retry-after hint attached to shed responses, in
	// milliseconds (default 200).
	RetryAfterMS int
	// HeartbeatEvery is the per-daemon health-probe cadence (default
	// 250ms); HeartbeatTimeout bounds each probe (default 1s); a daemon
	// missing SuspectAfter consecutive probes (default 3) is declared
	// dead: quarantined, its sessions failed over.
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	SuspectAfter     int
	// RequalifyBackoff is the initial delay between requalification
	// dials of a quarantined daemon, doubled up to 16x (default 250ms).
	RequalifyBackoff time.Duration
	// CheckpointEvery refreshes a session's checkpoint (and clears its
	// journal) after this many journaled mutating commands (default 8).
	CheckpointEvery int
	// Logf, when set, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// DialFor, when set, supplies the transport dialer for one daemon
	// address — the fault-injection seam: tests route a daemon's link
	// through a faults.DaemonInjector here. Nil entries (or a nil map)
	// mean net.Dial.
	DialFor func(addr string) func(network, addr string) (net.Conn, error)
}

func (c Config) withDefaults() Config {
	if c.MaxPerDaemon <= 0 {
		c.MaxPerDaemon = 8
	}
	if c.AttachRate <= 0 {
		c.AttachRate = 64
	}
	if c.AttachBurst <= 0 {
		c.AttachBurst = 16
	}
	if c.RetryAfterMS <= 0 {
		c.RetryAfterMS = 200
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.RequalifyBackoff <= 0 {
		c.RequalifyBackoff = 250 * time.Millisecond
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// counters are the fleet's observability registry entries, each named
// "zfleet." plus its tag, served to "counters" streams and, through
// Stats's mapping, OpStatus.
type counters struct {
	Admissions     *obs.Counter `obs:"admissions"`         // attaches admitted
	Sheds          *obs.Counter `obs:"sheds"`              // attaches shed with CodeOverloaded
	Commands       *obs.Counter `obs:"commands"`           // session commands forwarded
	Heartbeats     *obs.Counter `obs:"heartbeats"`         // health probes sent
	HeartbeatMiss  *obs.Counter `obs:"heartbeat_misses"`   // health probes missed
	Quarantines    *obs.Counter `obs:"quarantines"`        // daemons declared dead, lifetime
	Requalified    *obs.Counter `obs:"requalified"`        // daemons brought back after quarantine
	Failovers      *obs.Counter `obs:"failovers"`          // sessions rebuilt on a new daemon
	FailoverFail   *obs.Counter `obs:"failovers_failed"`   // sessions lost (no healthy daemon)
	FailoverNanos  *obs.Counter `obs:"failover_ns"`        // cumulative failover latency
	Checkpoints    *obs.Counter `obs:"checkpoints"`        // session checkpoints taken
	CheckpointFail *obs.Counter `obs:"checkpoints_failed"` // checkpoint refreshes whose export failed
	JournalReplays *obs.Counter `obs:"journal_replays"`    // journaled commands re-executed
	Drains         *obs.Counter `obs:"drains"`             // sessions migrated off draining daemons
}

// Coordinator is a running fleet frontend.
type Coordinator struct {
	cfg Config
	reg *obs.Registry
	ctr counters

	daemons []*daemon

	// hub is the serving layer clients connect through: the daemon's own.
	hub *server.Hub

	mu       sync.Mutex
	sessions map[uint64]*fsession // by fleet session id
	nextSID  uint64
	closed   bool

	// Admission token bucket (guarded by tbMu, not mu: the attach path
	// must never contend with the forwarding hot path).
	tbMu     sync.Mutex
	tokens   float64
	tbFilled time.Time

	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds a coordinator over the configured daemons; call Serve to
// accept client connections. Daemons that are down at startup begin in
// quarantine and are requalified by their heartbeat loops.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Daemons) == 0 {
		return nil, fmt.Errorf("fleet: no daemons configured")
	}
	co := &Coordinator{
		cfg:      cfg,
		reg:      obs.NewRegistry(),
		sessions: make(map[uint64]*fsession),
		tokens:   float64(cfg.AttachBurst),
		tbFilled: time.Now(),
		quit:     make(chan struct{}),
	}
	co.reg.Bind("zfleet.", &co.ctr)
	co.hub = server.NewHub(server.Frontend{
		Name:       "zfleet",
		Logf:       cfg.Logf,
		Reg:        co.reg,
		Dispatch:   co.dispatch,
		OpenStream: co.openStream,
	}, &co.wg)
	for i, addr := range cfg.Daemons {
		d := newDaemon(co, i, addr)
		co.daemons = append(co.daemons, d)
		co.wg.Add(1)
		go d.heartbeatLoop()
	}
	return co, nil
}

// Obs exposes the fleet's counter registry (zbench, tests).
func (co *Coordinator) Obs() *obs.Registry { return co.reg }

// Serve accepts client connections until Shutdown.
func (co *Coordinator) Serve(ln net.Listener) error { return co.hub.Serve(ln) }

// Shutdown stops accepting, notifies clients, tears down every session
// actor and daemon link, and waits for the goroutines to drain.
func (co *Coordinator) Shutdown() {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return
	}
	co.closed = true
	sessions := make([]*fsession, 0, len(co.sessions))
	for _, fs := range co.sessions {
		sessions = append(sessions, fs)
	}
	co.mu.Unlock()

	close(co.quit)
	co.hub.Close(&wire.Event{Kind: wire.EvtShutdown, Detail: "fleet coordinator shutting down"})
	for _, fs := range sessions {
		fs.stop()
	}
	for _, d := range co.daemons {
		d.closeClient(nil)
	}
	co.wg.Wait()
}

func (co *Coordinator) isClosed() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.closed
}

// session looks up a fleet session by id.
func (co *Coordinator) session(id uint64) *fsession {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.sessions[id]
}

// dropSession unregisters a finished session.
func (co *Coordinator) dropSession(fs *fsession) {
	co.mu.Lock()
	if co.sessions[fs.id] == fs {
		delete(co.sessions, fs.id)
	}
	co.mu.Unlock()
	fs.home().removeSession(fs)
}

// admit is the fleet-wide token bucket. It returns the milliseconds to
// wait when the bucket is dry (0 = admitted). Existing sessions never
// pass through here — only new placements are shed.
func (co *Coordinator) admit() int {
	co.tbMu.Lock()
	defer co.tbMu.Unlock()
	now := time.Now()
	co.tokens += now.Sub(co.tbFilled).Seconds() * co.cfg.AttachRate
	if max := float64(co.cfg.AttachBurst); co.tokens > max {
		co.tokens = max
	}
	co.tbFilled = now
	if co.tokens >= 1 {
		co.tokens--
		return 0
	}
	wait := (1 - co.tokens) / co.cfg.AttachRate * 1000
	if wait < 1 {
		wait = 1
	}
	return int(wait)
}

// place picks the least-loaded healthy, non-draining daemon with free
// capacity (ties break on lowest index, keeping placement deterministic
// for equal load) and reserves a slot on it, so concurrent placements
// cannot collectively overshoot the per-daemon cap. It returns the
// daemon with the client and generation the slot was reserved on, or
// nil when the fleet is at capacity. The caller consumes the
// reservation with addSession or returns it with unreserve.
func (co *Coordinator) place() (*daemon, *client.Client, uint64) {
	for attempt := 0; attempt <= len(co.daemons); attempt++ {
		var best *daemon
		bestLoad := 0
		for _, d := range co.daemons {
			load, ok := d.placeLoad()
			if !ok || load >= co.cfg.MaxPerDaemon {
				continue
			}
			if best == nil || load < bestLoad {
				best, bestLoad = d, load
			}
		}
		if best == nil {
			break
		}
		if cli, gen := best.tryReserve(co.cfg.MaxPerDaemon); cli != nil {
			return best, cli, gen
		}
		// Lost the race for the last slot; re-snapshot and retry.
	}
	return nil, nil, 0
}

// checkpoint exports a daemon-side session's state blob, counting each
// one taken: the attach's first checkpoint and every refresh.
func (co *Coordinator) checkpoint(ctx context.Context, cli *client.Client, rsid uint64) ([]byte, error) {
	resp, err := cli.CallCtx(ctx, &wire.Request{Op: wire.OpStateExport, Session: rsid})
	if err == nil && len(resp.Blob) == 0 {
		err = wire.Errf(wire.CodeOp, "empty state blob")
	}
	if err != nil {
		return nil, err
	}
	co.ctr.Checkpoints.Inc()
	return resp.Blob, nil
}

// Stats assembles the fleet-level counter snapshot answering OpStatus.
// Sessions and commands are the coordinator's own view; the robustness
// counters map onto the fleet equivalents so `zoomie> status` renders
// meaningfully against a coordinator; the transport counters (bytes,
// events, streams) are the serving layer's, as on a daemon.
func (co *Coordinator) Stats() *wire.Stats {
	co.mu.Lock()
	active := int64(len(co.sessions))
	co.mu.Unlock()
	var quarantined int64
	for _, d := range co.daemons {
		if d.currentState() == daemonQuarantined {
			quarantined++
		}
	}
	out := &wire.Stats{
		SessionsActive:  active,
		SessionsTotal:   int64(co.ctr.Admissions.Load()),
		CommandsServed:  int64(co.ctr.Commands.Load()),
		PoolCapacity:    int64(len(co.daemons) * co.cfg.MaxPerDaemon),
		PoolInUse:       active,
		PoolDenied:      int64(co.ctr.Sheds.Load()),
		PoolQuarantined: quarantined,
		Quarantines:     int64(co.ctr.Quarantines.Load()),
		Probes:          int64(co.ctr.Heartbeats.Load()),
		ProbeFailures:   int64(co.ctr.HeartbeatMiss.Load()),
		Migrations:      int64(co.ctr.Failovers.Load() + co.ctr.Drains.Load()),
		MigrationsFail:  int64(co.ctr.FailoverFail.Load()),
	}
	co.hub.FillStats(out)
	return out
}

// daemonByAddr finds a configured daemon (fleetdrain's addressing).
func (co *Coordinator) daemonByAddr(addr string) *daemon {
	for _, d := range co.daemons {
		if d.addr == addr {
			return d
		}
	}
	return nil
}

// fleetStatLines renders one row per daemon for OpFleetStat.
func (co *Coordinator) fleetStatLines() []string {
	lines := make([]string, 0, len(co.daemons))
	for _, d := range co.daemons {
		lines = append(lines, d.statusLine())
	}
	return lines
}
