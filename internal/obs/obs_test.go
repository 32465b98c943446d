package obs

import (
	"sync"
	"testing"
	"time"

	"zoomie/internal/wire"
)

func TestCounterRegistry(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a")
	if got := r.Counter("a"); got != a {
		t.Fatalf("Counter(a) not stable: %p vs %p", got, a)
	}
	a.Inc()
	a.Add(4)
	if v := a.Load(); v != 5 {
		t.Fatalf("a = %d, want 5", v)
	}
	r.Counter("b").Add(2)
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

func TestReaderDeltas(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a")
	a.Add(100) // before the reader exists: must not appear in deltas
	rd := r.NewReader()

	names, deltas, total := rd.Deltas(nil, nil)
	if total != 0 || len(names) != 0 || len(deltas) != 0 {
		t.Fatalf("first flush not empty: %v %v %d", names, deltas, total)
	}

	a.Add(7)
	b := r.Counter("b") // registered after the reader was primed
	b.Add(3)
	names, deltas, total = rd.Deltas(names[:0], deltas[:0])
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	got := map[string]uint64{}
	for i, n := range names {
		got[n] = deltas[i]
	}
	if got["a"] != 7 || got["b"] != 3 {
		t.Fatalf("deltas = %v", got)
	}

	// Idle interval flushes nothing.
	if _, _, total = rd.Deltas(names[:0], deltas[:0]); total != 0 {
		t.Fatalf("idle total = %d, want 0", total)
	}
}

func TestIndependentReaders(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a")
	r1, r2 := r.NewReader(), r.NewReader()
	a.Add(5)
	if _, _, total := r1.Deltas(nil, nil); total != 5 {
		t.Fatalf("r1 total = %d", total)
	}
	a.Add(2)
	// r2 sees both intervals' worth; r1 only the second.
	if _, _, total := r2.Deltas(nil, nil); total != 7 {
		t.Fatalf("r2 total = %d", total)
	}
	if _, _, total := r1.Deltas(nil, nil); total != 2 {
		t.Fatalf("r1 second total = %d", total)
	}
}

func TestConcurrentProducers(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	rd := r.NewReader()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if _, _, total := rd.Deltas(nil, nil); total != workers*per {
		t.Fatalf("total = %d, want %d", total, workers*per)
	}
}

// TestBind pins the tagged-field registration producers use: each
// tagged field gets the counter named prefix plus its tag, registered in
// field order, and an untagged field is left alone.
func TestBind(t *testing.T) {
	r := NewRegistry()
	var c struct {
		B     *Counter `obs:"b"`
		A     *Counter `obs:"a"`
		Other *Counter
	}
	r.Bind("p.", &c)
	c.B.Inc()
	if c.A != r.Lookup("p.a") || c.B != r.Lookup("p.b") || c.Other != nil {
		t.Fatalf("bound %p %p %p, registry %v", c.A, c.B, c.Other, r.Names())
	}
	if names, deltas, _ := r.NewReader().Deltas(nil, nil); len(names) != 0 || len(deltas) != 0 {
		t.Fatalf("a primed reader saw %v", names)
	}
	rd := r.NewReader()
	c.A.Inc()
	c.B.Inc()
	if names, _, _ := rd.Deltas(nil, nil); len(names) != 2 || names[0] != "p.b" || names[1] != "p.a" {
		t.Fatalf("deltas in %v, want field order [p.b p.a]", names)
	}
}

// TestHistogramBuckets pins the latency histogram's bucketing over the
// daemon's bounds: a 50 µs observation lands in bucket 0 (<= 100 µs), a
// 5 ms one in bucket 2 (<= 10 ms), and each bucket is a registry counter
// named after the histogram and its index.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", wire.LatencyBounds)
	h.Observe((50 * time.Microsecond).Microseconds())
	h.Observe((5 * time.Millisecond).Microseconds())
	h.Observe((time.Hour).Microseconds()) // past every bound: the last bucket
	want := []uint64{1, 0, 1, 0, 0, 1}
	if names := r.Names(); len(names) != len(want) {
		t.Fatalf("registered %v, want %d buckets", names, len(want))
	}
	for i, w := range want {
		name := "lat." + string(rune('0'+i))
		if c := r.Lookup(name); c == nil || c.Load() != w {
			t.Errorf("%s = %v, want %d", name, c, w)
		}
	}
}

// BenchmarkCounterAdd measures the producer-side cost of one event — the
// number that must stay negligible on the peek/poke hot path, and the
// basis of the ≥1M events/sec aggregation claim (one atomic add per
// event, aggregation cost amortized over the flush interval).
func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkReaderFlush measures one aggregation pass over a registry of
// 64 counters — the per-interval cost a counters stream pays.
func BenchmarkReaderFlush(b *testing.B) {
	r := NewRegistry()
	ctrs := make([]*Counter, 64)
	for i := range ctrs {
		ctrs[i] = r.Counter(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	rd := r.NewReader()
	var names []string
	var deltas []uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctrs[i%len(ctrs)].Inc()
		names, deltas, _ = rd.Deltas(names[:0], deltas[:0])
	}
}
