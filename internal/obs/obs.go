// Package obs is the one counter implementation of zoomied and zfleet:
// lock-free counters that producers bump at line rate (one atomic add
// per event — the session actor, the transport, a user tap), registries
// that name them, and delta readers that aggregate whatever accumulated
// since the last flush into a single counters-stream frame. A daemon's
// status reply, its -stats dump and its counters streams read the same
// registry, so they report the same numbers. The design point is
// FireSim-style out-of-band telemetry: millions of events per second on
// the producer side become a handful of wire frames per second, because
// the wire carries per-interval deltas of named counters, never the
// events themselves.
package obs

import (
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is one monotonically increasing event counter. Adds are a
// single atomic instruction — cheap enough for the peek/poke hot path —
// and never block a reader.
type Counter struct {
	v atomic.Uint64
}

// Add records n events.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc records one event.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the lifetime total.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Registry is a named set of counters. Registration (first Counter call
// for a name) takes a lock; subsequent lookups should be cached by the
// producer, which then pays only the atomic add.
type Registry struct {
	mu       sync.RWMutex
	names    []string
	counters []*Counter
	byName   map[string]*Counter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, creating it on first
// use. The returned pointer is stable for the registry's lifetime —
// cache it, don't re-look it up per event.
func (r *Registry) Counter(name string) *Counter {
	if c := r.Lookup(name); c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.byName[name]
	if c != nil {
		return c
	}
	c = &Counter{}
	r.byName[name] = c
	r.names = append(r.names, name)
	r.counters = append(r.counters, c)
	return c
}

// Bind sets each field of the struct dst points to that has an `obs`
// tag, a *Counter, to the counter named prefix plus the tag, registering
// counters in field order. A producer declares each counter once: the
// field it bumps, and the tag that names it.
func (r *Registry) Bind(prefix string, dst any) {
	v := reflect.ValueOf(dst).Elem()
	for i := 0; i < v.NumField(); i++ {
		if name, ok := v.Type().Field(i).Tag.Lookup("obs"); ok {
			v.Field(i).Set(reflect.ValueOf(r.Counter(prefix + name)))
		}
	}
}

// Names returns the registered counter names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := append([]string(nil), r.names...)
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Lookup returns the counter with the given name, or nil when none is
// registered; unlike Counter it never creates one.
func (r *Registry) Lookup(name string) *Counter {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name]
}

// Histogram counts observations by bucket: one registry counter per
// bucket, named after the histogram with the bucket index appended
// ("name.0", "name.1", ...), so buckets flow through readers like any
// other counter.
type Histogram struct {
	bounds  []int64
	buckets []*Counter
}

// Histogram registers a histogram over ascending upper bounds. The last
// bucket also takes every value above the bounds before it, so a last
// bound of -1 reads as unbounded.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	h := &Histogram{bounds: bounds, buckets: make([]*Counter, len(bounds))}
	for i := range bounds {
		h.buckets[i] = r.Counter(name + "." + strconv.Itoa(i))
	}
	return h
}

// Observe counts v in the first bucket whose bound holds it: one atomic
// add.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds)-1 && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Inc()
}

// Reader tracks per-counter totals between flushes so each flush yields
// deltas. Each stream gets its own Reader; readers never interfere.
type Reader struct {
	reg  *Registry
	last []uint64
}

// NewReader returns a delta reader starting from the current totals, so
// the first flush reports only events after the stream opened.
func (r *Registry) NewReader() *Reader {
	rd := &Reader{reg: r}
	rd.Deltas(nil, nil) // prime last with current totals
	return rd
}

// Deltas appends the name and delta of every counter that moved since
// the previous call to the given slices (reused across flushes to stay
// allocation-free in steady state) and returns them along with the total
// number of events in this interval. Counters that did not move are
// omitted — an idle system flushes nothing.
func (rd *Reader) Deltas(names []string, deltas []uint64) ([]string, []uint64, uint64) {
	rd.reg.mu.RLock()
	regNames, counters := rd.reg.names, rd.reg.counters
	if len(rd.last) < len(counters) {
		rd.last = append(rd.last, make([]uint64, len(counters)-len(rd.last))...)
	}
	var total uint64
	for i, c := range counters {
		cur := c.Load()
		if d := cur - rd.last[i]; d != 0 {
			names = append(names, regNames[i])
			deltas = append(deltas, d)
			total += d
			rd.last[i] = cur
		}
	}
	rd.reg.mu.RUnlock()
	return names, deltas, total
}
