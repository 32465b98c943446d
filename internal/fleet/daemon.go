package fleet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"zoomie/internal/client"
	"zoomie/internal/wire"
)

// daemonState is one daemon's position in the lease state machine.
type daemonState int32

const (
	// daemonHealthy serves placements and forwards.
	daemonHealthy daemonState = iota
	// daemonSuspect has missed at least one heartbeat; it still serves
	// existing sessions but takes no new placements until it answers.
	daemonSuspect
	// daemonQuarantined is declared dead: its link is severed, its
	// sessions failed over, and the heartbeat loop requalifies it with
	// exponential backoff before it serves again.
	daemonQuarantined
)

func (s daemonState) String() string {
	switch s {
	case daemonHealthy:
		return "healthy"
	case daemonSuspect:
		return "suspect"
	case daemonQuarantined:
		return "quarantined"
	}
	return fmt.Sprintf("daemonState(%d)", int32(s))
}

// daemon is one zoomied under the coordinator: a failure domain with
// its own wire client, lease state, and homed sessions.
type daemon struct {
	co   *Coordinator
	idx  int
	addr string
	dial func(network, addr string) (net.Conn, error)

	mu       sync.Mutex
	state    daemonState
	draining bool
	cli      *client.Client // nil while quarantined
	gen      uint64         // bumps on every quarantine; stales old failure reports
	misses   int
	pending  int                  // placements reserved but not yet homed
	sessions map[uint64]*fsession // fleet sid -> session homed here
	remotes  map[uint64]*fsession // daemon-side sid -> session (event routing)
}

func newDaemon(co *Coordinator, idx int, addr string) *daemon {
	d := &daemon{
		co:       co,
		idx:      idx,
		addr:     addr,
		state:    daemonQuarantined, // requalified by the first heartbeat
		sessions: make(map[uint64]*fsession),
		remotes:  make(map[uint64]*fsession),
	}
	if co.cfg.DialFor != nil {
		d.dial = co.cfg.DialFor(addr)
	}
	return d
}

// client returns the live backend client and its generation, or nil
// while the daemon is quarantined.
func (d *daemon) client() (*client.Client, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cli, d.gen
}

func (d *daemon) currentState() daemonState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// placeLoad is the load placement compares — homed sessions plus slots
// reserved by placements still in flight — and whether new sessions may
// land here at all: not while suspect, quarantined or draining.
func (d *daemon) placeLoad() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sessions) + d.pending, d.state == daemonHealthy && !d.draining && d.cli != nil
}

// tryReserve claims one placement slot against cap, counting in-flight
// placements so concurrent attaches cannot race past the per-daemon
// limit, and returns the live client and generation it was claimed on
// (nil when no slot was free). A successful reservation is consumed by
// addSession or returned with unreserve.
func (d *daemon) tryReserve(cap int) (*client.Client, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != daemonHealthy || d.draining || d.cli == nil || len(d.sessions)+d.pending >= cap {
		return nil, 0
	}
	d.pending++
	return d.cli, d.gen
}

// unreserve returns an unconsumed placement slot.
func (d *daemon) unreserve() {
	d.mu.Lock()
	if d.pending > 0 {
		d.pending--
	}
	d.mu.Unlock()
}

// addSession homes a session here under its daemon-side id, consuming
// the placement reservation that got it here.
func (d *daemon) addSession(fs *fsession, remoteSID uint64) {
	d.mu.Lock()
	if d.pending > 0 {
		d.pending--
	}
	d.sessions[fs.id] = fs
	d.remotes[remoteSID] = fs
	d.mu.Unlock()
}

// removeSession unhomes a session (detach, failover re-homing).
func (d *daemon) removeSession(fs *fsession) {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.sessions[fs.id] == fs {
		delete(d.sessions, fs.id)
	}
	for rsid, s := range d.remotes {
		if s == fs {
			delete(d.remotes, rsid)
		}
	}
	d.mu.Unlock()
}

// homedSessions snapshots the sessions currently homed here.
func (d *daemon) homedSessions() []*fsession {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*fsession, 0, len(d.sessions))
	for _, fs := range d.sessions {
		out = append(out, fs)
	}
	return out
}

func (d *daemon) setDraining(on bool) {
	d.mu.Lock()
	d.draining = on
	d.mu.Unlock()
}

// statusLine renders this daemon's OpFleetStat row.
func (d *daemon) statusLine() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	drain := ""
	if d.draining {
		drain = " draining"
	}
	return fmt.Sprintf("%-22s %-11s sessions=%d%s", d.addr, d.state, len(d.sessions), drain)
}

// reportFailure is the fast path to quarantine: a forwarder that hit a
// connection-level error on generation gen declares the daemon dead
// immediately instead of waiting for the heartbeat loop to notice.
// Stale reports (an older generation) are ignored.
func (d *daemon) reportFailure(gen uint64, cause error) {
	d.declareDead(gen, cause)
}

// declareDead severs the link, quarantines the daemon, and kicks every
// homed session's actor into failover. Idempotent per generation.
func (d *daemon) declareDead(gen uint64, cause error) {
	d.mu.Lock()
	if d.gen != gen || d.state == daemonQuarantined {
		d.mu.Unlock()
		return
	}
	d.state = daemonQuarantined
	d.gen++
	cli := d.cli
	d.cli = nil
	d.misses = 0
	sessions := make([]*fsession, 0, len(d.sessions))
	for _, fs := range d.sessions {
		sessions = append(sessions, fs)
	}
	d.mu.Unlock()

	d.co.ctr.Quarantines.Inc()
	d.co.cfg.Logf("zfleet: daemon %s declared dead (%v); failing over %d session(s)",
		d.addr, cause, len(sessions))
	if cli != nil {
		cli.Close() // poisons in-flight forwards, unblocking their actors
	}
	// Idle sessions have no in-flight forward to fail; prod their actors
	// so failover happens now, not at the next client command.
	for _, fs := range sessions {
		fs.kick(gen)
	}
}

// closeClient severs the link without the failover side effects — the
// shutdown path. When addr is non-nil only that client is closed.
func (d *daemon) closeClient(only *client.Client) {
	d.mu.Lock()
	cli := d.cli
	if only != nil && cli != only {
		d.mu.Unlock()
		return
	}
	d.cli = nil
	d.mu.Unlock()
	if cli != nil {
		cli.Close()
	}
}

// heartbeatLoop owns the daemon's lease: while healthy it probes on the
// configured cadence and counts misses toward suspicion; while
// quarantined it redials with exponential backoff (bounded at 16x) and
// requalifies on a successful probe. One loop per daemon for the
// coordinator's lifetime.
func (d *daemon) heartbeatLoop() {
	defer d.co.wg.Done()
	backoff := d.co.cfg.RequalifyBackoff
	for {
		d.mu.Lock()
		state := d.state
		cli := d.cli
		gen := d.gen
		d.mu.Unlock()

		if state == daemonQuarantined || cli == nil {
			if !d.sleep(backoff) {
				return
			}
			if backoff < 16*d.co.cfg.RequalifyBackoff {
				backoff *= 2
			}
			if d.requalify() {
				backoff = d.co.cfg.RequalifyBackoff
			}
			continue
		}

		if !d.sleep(d.co.cfg.HeartbeatEvery) {
			return
		}
		d.co.ctr.Heartbeats.Inc()
		ctx, cancel := context.WithTimeout(context.Background(), d.co.cfg.HeartbeatTimeout)
		_, err := cli.CallCtx(ctx, &wire.Request{Op: wire.OpStatus})
		cancel()
		if err == nil {
			d.mu.Lock()
			if d.gen == gen {
				d.misses = 0
				if d.state == daemonSuspect {
					d.state = daemonHealthy
					d.co.cfg.Logf("zfleet: daemon %s recovered from suspicion", d.addr)
				}
			}
			d.mu.Unlock()
			continue
		}
		d.co.ctr.HeartbeatMiss.Inc()
		d.mu.Lock()
		if d.gen != gen || d.state == daemonQuarantined {
			d.mu.Unlock()
			continue
		}
		d.misses++
		misses := d.misses
		if d.state == daemonHealthy {
			d.state = daemonSuspect
			d.co.cfg.Logf("zfleet: daemon %s suspect (heartbeat: %v)", d.addr, err)
		}
		d.mu.Unlock()
		if misses >= d.co.cfg.SuspectAfter {
			d.declareDead(gen, fmt.Errorf("missed %d heartbeats: %w", misses, err))
		}
	}
}

// sleep waits, returning false when the coordinator shut down.
func (d *daemon) sleep(t time.Duration) bool {
	select {
	case <-d.co.quit:
		return false
	case <-time.After(t):
		return true
	}
}

// requalify dials a quarantined daemon; on a clean handshake and probe
// it rejoins the fleet as healthy and its event pump restarts.
func (d *daemon) requalify() bool {
	if d.co.isClosed() {
		return false
	}
	opts := client.Options{Dial: d.dial}
	cli, err := client.DialOptions(d.addr, opts)
	if err != nil {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.co.cfg.HeartbeatTimeout)
	_, err = cli.CallCtx(ctx, &wire.Request{Op: wire.OpStatus})
	cancel()
	if err != nil {
		cli.Close()
		return false
	}
	d.mu.Lock()
	if d.co.isClosedLockedHint() {
		d.mu.Unlock()
		cli.Close()
		return false
	}
	d.state = daemonHealthy
	d.cli = cli
	d.misses = 0
	d.mu.Unlock()
	d.co.ctr.Requalified.Inc()
	d.co.cfg.Logf("zfleet: daemon %s qualified", d.addr)
	d.co.wg.Add(1)
	go d.pumpEvents(cli)
	return true
}

// isClosedLockedHint is isClosed without taking co.mu under d.mu (lock
// order: never co.mu inside d.mu). The quit channel is the authority.
func (co *Coordinator) isClosedLockedHint() bool {
	select {
	case <-co.quit:
		return true
	default:
		return false
	}
}

// pumpEvents forwards one backend client's event feed to fleet clients,
// rewriting daemon-side session ids to fleet ids. Events for sessions
// mid-failover-replay are suppressed (their originals were already
// delivered before the daemon died); daemon shutdown events are not a
// fleet shutdown and are swallowed — the heartbeat loop handles the
// daemon's death. The pump dies with its client.
func (d *daemon) pumpEvents(cli *client.Client) {
	defer d.co.wg.Done()
	for ev := range cli.Events() {
		switch ev.Kind {
		case wire.EvtShutdown:
			continue
		}
		if ev.Session == 0 {
			continue
		}
		d.mu.Lock()
		fs := d.remotes[ev.Session]
		d.mu.Unlock()
		if fs == nil || fs.eventsSuppressed() {
			continue
		}
		if ev.Kind == wire.EvtDetached {
			// The daemon reclaimed the session (idle timeout): the fleet
			// session dies with it.
			fs.stop()
			d.co.dropSession(fs)
		}
		ev.Session = fs.id
		d.co.hub.Broadcast(&ev)
	}
}
