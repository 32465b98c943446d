package server

import (
	"encoding/json"
	"io"
	"reflect"
	"strconv"
	"strings"

	"zoomie"
	"zoomie/internal/faults"
	"zoomie/internal/obs"
	"zoomie/internal/wire"
)

// counters are the daemon's obs counters, cached so an event costs one
// atomic add, never a map lookup. Each is named "zoomied." plus its tag,
// the JSON key of the wire.Stats field it fills, which is how Stats
// finds it; the op counters (commands, peeks, pokes, cycles) have no
// wire.Stats field and reach clients through counters streams only.
type counters struct {
	Commands *obs.Counter `obs:"commands"` // commands executed by session actors
	Peeks    *obs.Counter `obs:"peeks"`    // register/memory/output reads (batch items count individually)
	Pokes    *obs.Counter `obs:"pokes"`    // register/memory/input writes (batch items count individually)
	Cycles   *obs.Counter `obs:"cycles"`   // clock cycles advanced by run/step/until

	SessionsTotal  *obs.Counter `obs:"sessions_total"`
	CommandsServed *obs.Counter `obs:"commands_served"`
	IdleReaped     *obs.Counter `obs:"idle_reaped"`
	Interleaved    *obs.Counter `obs:"interleaved"`
	Probes         *obs.Counter `obs:"probes"`
	ProbeFailures  *obs.Counter `obs:"probe_failures"`
	Migrations     *obs.Counter `obs:"migrations"`
	MigrationsFail *obs.Counter `obs:"migrations_failed"`
	IlaWindows     *obs.Counter `obs:"ila_windows"`

	// Cable and injector counters, folded in by the session actors.
	JtagRetries    *obs.Counter `obs:"jtag_retries"`
	JtagReReads    *obs.Counter `obs:"jtag_rereads"`
	JtagRewrites   *obs.Counter `obs:"jtag_rewrites"`
	FaultsInjected *obs.Counter `obs:"faults_injected"`

	Latency *obs.Histogram // served commands by handling latency, µs
}

// newCounters registers the daemon's counters in reg.
func newCounters(reg *obs.Registry) *counters {
	c := &counters{}
	reg.Bind("zoomied.", c)
	c.Latency = reg.Histogram("zoomied.latency_us", wire.LatencyBounds)
	return c
}

// advanced counts n clock cycles; a non-positive count advanced none.
func (c *counters) advanced(n int) {
	if n > 0 {
		c.Cycles.Add(uint64(n))
	}
}

// cableCounts is how much of one board's cable and injector counters a
// session has folded into the registry: retries, re-reads, rewrites and
// injected faults.
type cableCounts [4]int64

// fold adds what zs's cable and inj counted since seen to the registry
// and brings seen up to date: loads, plus an add per counter that moved.
func (c *counters) fold(zs *zoomie.Session, inj *faults.Injector, seen *cableCounts) {
	cs := zs.Cable.Stats()
	now := cableCounts{cs.Retries, cs.ReReads, cs.Rewrites, 0}
	if inj != nil {
		now[3] = inj.Stats().Total()
	}
	for i, ctr := range [...]*obs.Counter{c.JtagRetries, c.JtagReReads, c.JtagRewrites, c.FaultsInjected} {
		if now[i] > seen[i] {
			ctr.Add(uint64(now[i] - seen[i]))
		}
	}
	*seen = now
}

// fillStats is the one view from counters to wire.Stats: each int64
// field takes the counter named prefix plus the field's JSON key, and a
// slice field the histogram buckets "<key>.0", "<key>.1", ... in order.
// A field without a counter keeps its value.
func fillStats(out *wire.Stats, reg *obs.Registry, prefix string) {
	v := reflect.ValueOf(out).Elem()
	for i := 0; i < v.NumField(); i++ {
		key, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		f := v.Field(i)
		if f.Kind() == reflect.Int64 {
			if c := reg.Lookup(prefix + key); c != nil {
				f.SetInt(int64(c.Load()))
			}
			continue
		}
		for b := 0; ; b++ {
			c := reg.Lookup(prefix + key + "." + strconv.Itoa(b))
			if c == nil {
				break
			}
			f.Set(reflect.Append(f, reflect.ValueOf(int64(c.Load()))))
		}
	}
}

// Stats snapshots the server counters into the wire representation: the
// registry's counters, the serving layer's transport counters, and the
// gauges and lease counts only the session table and the pool know.
func (s *Server) Stats() *wire.Stats {
	out := &wire.Stats{}
	fillStats(out, s.reg, "zoomied.")
	s.hub.FillStats(out)
	s.mu.Lock()
	out.SessionsActive = int64(len(s.sessions))
	s.mu.Unlock()
	out.PoolCapacity = int64(s.pool.Capacity())
	out.PoolInUse = int64(s.pool.InUse())
	out.PoolQuarantined = int64(s.pool.Quarantined())
	out.Quarantines = s.pool.QuarantineCount()
	_, out.PoolDenied, _ = s.pool.Counters()
	return out
}

// WriteStats dumps the counters as indented JSON — the expvar-style
// escape hatch for scraping zoomied without speaking the wire protocol.
func (s *Server) WriteStats(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Stats())
}
