package server

import (
	"encoding/json"
	"io"
	"sync/atomic"
	"time"

	"zoomie"
	"zoomie/internal/faults"
	"zoomie/internal/wire"
)

// stats holds the server-wide counters behind the status wire command
// and the expvar-style dump. All fields are touched with atomics; the
// pool keeps its own counters under its lock.
type stats struct {
	sessionsActive int64
	sessionsTotal  int64
	commandsServed int64
	idleReaped     int64
	interleaved    int64

	// Robustness counters (chaos / self-healing). The serving layer
	// keeps the transport counters: bytes, events, reconnects, replay
	// hits and streams.
	probes         int64
	probeFailures  int64
	migrations     int64
	migrationsFail int64

	// Transport counters of retired sessions, accumulated at teardown and
	// migration so recovery work survives the cable that did it. Stats()
	// adds the live sessions' cables on top.
	jtagRetries    int64
	jtagReReads    int64
	jtagRewrites   int64
	faultsInjected int64

	ilaWindows int64 // ILA capture windows uploaded and streamed

	latency [len(latencyBoundsUS)]int64
}

// latencyBoundsUS mirrors wire.LatencyBounds: upper bounds in µs, last
// bucket unbounded.
var latencyBoundsUS = [...]int64{100, 1000, 10_000, 100_000, 1_000_000, -1}

func (st *stats) observeLatency(d time.Duration) {
	us := d.Microseconds()
	for i, b := range latencyBoundsUS {
		if b < 0 || us <= b {
			atomic.AddInt64(&st.latency[i], 1)
			return
		}
	}
}

// retire folds a closing session's transport counters into the server
// totals, so cable recovery work and injected-fault counts outlive the
// session that accrued them.
func (s *Server) retire(zs *zoomie.Session, inj *faults.Injector) {
	cs := zs.Cable.Stats()
	atomic.AddInt64(&s.stats.jtagRetries, cs.Retries)
	atomic.AddInt64(&s.stats.jtagReReads, cs.ReReads)
	atomic.AddInt64(&s.stats.jtagRewrites, cs.Rewrites)
	if inj != nil {
		atomic.AddInt64(&s.stats.faultsInjected, inj.Stats().Total())
	}
}

// Stats snapshots the server counters into the wire representation.
func (s *Server) Stats() *wire.Stats {
	st := &s.stats
	out := &wire.Stats{
		SessionsActive: atomic.LoadInt64(&st.sessionsActive),
		SessionsTotal:  atomic.LoadInt64(&st.sessionsTotal),
		CommandsServed: atomic.LoadInt64(&st.commandsServed),
		IdleReaped:     atomic.LoadInt64(&st.idleReaped),
		Interleaved:    atomic.LoadInt64(&st.interleaved),
		PoolCapacity:   int64(s.pool.Capacity()),
		PoolInUse:      int64(s.pool.InUse()),

		PoolQuarantined: int64(s.pool.Quarantined()),
		Quarantines:     s.pool.QuarantineCount(),
		Probes:          atomic.LoadInt64(&st.probes),
		ProbeFailures:   atomic.LoadInt64(&st.probeFailures),
		Migrations:      atomic.LoadInt64(&st.migrations),
		MigrationsFail:  atomic.LoadInt64(&st.migrationsFail),
		JtagRetries:     atomic.LoadInt64(&st.jtagRetries),
		JtagReReads:     atomic.LoadInt64(&st.jtagReReads),
		JtagRewrites:    atomic.LoadInt64(&st.jtagRewrites),
		FaultsInjected:  atomic.LoadInt64(&st.faultsInjected),
		IlaWindows:      atomic.LoadInt64(&st.ilaWindows),
	}
	_, denied, _ := s.pool.Counters()
	out.PoolDenied = denied
	s.hub.FillStats(out)

	// Fold in the live sessions' cable and injector counters (atomic
	// reads on their side; the session list is copied under the server
	// lock, cable pointers under each session's lock).
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	for _, sess := range live {
		cs := sess.cableStats()
		out.JtagRetries += cs.Retries
		out.JtagReReads += cs.ReReads
		out.JtagRewrites += cs.Rewrites
		if inj := sess.injector.Load(); inj != nil {
			out.FaultsInjected += inj.Stats().Total()
		}
	}

	out.LatencyBuckets = make([]int64, len(st.latency))
	for i := range st.latency {
		out.LatencyBuckets[i] = atomic.LoadInt64(&st.latency[i])
	}
	return out
}

// WriteStats dumps the counters as indented JSON — the expvar-style
// escape hatch for scraping zoomied without speaking the wire protocol.
func (s *Server) WriteStats(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Stats())
}
