package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"zoomie/internal/wire"
)

// tconn wraps a load connection in a traced run (installed through
// client.Options.Dial). Around each traced op it records when the
// request's last byte was written and when the response's first byte
// arrived — the server residency — and it captures the frames so the
// codec can be re-run on them afterwards.
type tconn struct {
	net.Conn

	mu         sync.Mutex
	on         bool
	wrote      int64
	read       int64
	bytes      int64
	capture    bool
	capW, capR []byte
	ops        int // ops whose frames are in capW/capR
}

// captureLimit bounds the frame bytes one traced connection keeps.
const captureLimit = 4 << 20

func tracedDial(conns *[]*tconn, mu *sync.Mutex) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		tc := &tconn{Conn: c}
		mu.Lock()
		*conns = append(*conns, tc)
		mu.Unlock()
		return tc, nil
	}
}

func (c *tconn) begin() {
	c.mu.Lock()
	c.on, c.wrote, c.read, c.bytes = true, 0, 0, 0
	c.capture = len(c.capW) < captureLimit && len(c.capR) < captureLimit
	c.mu.Unlock()
}

func (c *tconn) end() (wrote, read, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.on = false
	if c.capture {
		c.ops++
	}
	return c.wrote, c.read, c.bytes
}

func (c *tconn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := time.Now().UnixNano()
	c.mu.Lock()
	if c.on {
		c.wrote = now
		c.bytes += int64(n)
		if c.capture {
			c.capW = append(c.capW, p[:n]...)
		}
	}
	c.mu.Unlock()
	return n, err
}

func (c *tconn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now().UnixNano()
		c.mu.Lock()
		if c.on {
			// A response that overtakes the writer's timestamp leaves the
			// op without a residency sample rather than a negative one.
			if c.read == 0 && c.wrote != 0 {
				c.read = now
			}
			c.bytes += int64(n)
			if c.capture {
				c.capR = append(c.capR, p[:n]...)
			}
		}
		c.mu.Unlock()
	}
	return n, err
}

// setWireMetrics re-encodes and re-decodes, at v3, every frame the traced
// connections captured, and reports the codec's cost per op.
func setWireMetrics(res *runResult, conns []*tconn, logs []*clientLog) error {
	var msgs []*wire.Message
	var streams [][]byte
	ops := 0
	for _, c := range conns {
		for _, data := range [][]byte{c.capW, c.capR} {
			dec := wire.NewDecoder(bytes.NewReader(data), wire.Version)
			for {
				m, _, err := dec.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return fmt.Errorf("wire: re-decode captured frames: %w", err)
				}
				msgs = append(msgs, m)
			}
			streams = append(streams, data)
		}
		ops += c.ops
	}
	var traced, bytesSum float64
	for _, l := range logs {
		for _, t := range l.traced {
			traced++
			bytesSum += float64(t.bytes)
		}
	}
	res.set("wire.bytes_per_op", ratio(bytesSum, traced))
	if ops == 0 {
		return nil
	}
	encode := func() {
		enc := wire.NewEncoder(io.Discard, wire.Version)
		for _, m := range msgs {
			if _, err := enc.Encode(m); err != nil {
				panic(err) // these frames decoded a moment ago
			}
		}
	}
	decode := func() {
		for _, data := range streams {
			dec := wire.NewDecoder(bytes.NewReader(data), wire.Version)
			for {
				if _, _, err := dec.Next(); err != nil {
					break
				}
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	encode()
	decode()
	runtime.ReadMemStats(&after)
	res.set("wire.allocs_per_op", float64(after.Mallocs-before.Mallocs)/float64(ops))
	res.set("wire.encode_ns_per_op", timePerOp(encode, ops))
	res.set("wire.decode_ns_per_op", timePerOp(decode, ops))
	return nil
}

// timePerOp repeats f for at least 200 ms and returns ns per op, where
// one call of f covers ops ops.
func timePerOp(f func(), ops int) float64 {
	rounds := 0
	start := time.Now()
	for rounds == 0 || time.Since(start) < 200*time.Millisecond {
		f()
		rounds++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*ops)
}

// span is one traced interval. Spans marked attributed were measured
// elsewhere — replayed on the in-process twin, or a sampled per-run cost
// — and count against their parent by duration, not by overlap.
type span struct {
	ID         int              `json:"id"`
	Parent     int              `json:"parent,omitempty"`
	Name       string           `json:"name"`
	Req        string           `json:"req"`
	Start      int64            `json:"start_ns"`
	End        int64            `json:"end_ns"`
	Attributed bool             `json:"attributed,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// layer is the span name up to its first dot: "client.peek" -> "client".
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// request is one traced request's spans; spans[0] is the root.
type request struct {
	headline bool
	spans    []span
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	nextID int
	reqs   []*request
}

func (t *tracer) request(headline bool) *request {
	r := &request{headline: headline}
	t.reqs = append(t.reqs, r)
	return r
}

// add appends a span and returns its id (the root's parent is 0).
func (t *tracer) add(r *request, parent int, name, req string, start, end int64, attributed bool, counters map[string]int64) int {
	t.nextID++
	r.spans = append(r.spans, span{ID: t.nextID, Parent: parent, Name: name, Req: req,
		Start: start, End: end, Attributed: attributed, Counters: counters})
	return t.nextID
}

// rootDurations returns each headline request's duration in µs.
func (t *tracer) rootDurations() []float64 {
	var out []float64
	for _, r := range t.reqs {
		if r.headline && len(r.spans) > 0 {
			out = append(out, float64(r.spans[0].End-r.spans[0].Start)/1e3)
		}
	}
	return out
}

// selfTimes returns, per layer, the self time in µs (spans' durations
// minus their children's) of each headline request whose duration lies
// in [lo, hi], plus those requests' durations. Every layer has one entry
// per request (0 where the request did not reach it).
func (t *tracer) selfTimes(lo, hi float64) (map[string][]float64, []float64) {
	var selfs []map[string]float64
	var roots []float64
	for _, r := range t.reqs {
		if !r.headline || len(r.spans) == 0 {
			continue
		}
		root := float64(r.spans[0].End-r.spans[0].Start) / 1e3
		if root < lo || root > hi {
			continue
		}
		children := map[int]int64{}
		for _, s := range r.spans {
			children[s.Parent] += s.End - s.Start
		}
		self := map[string]float64{}
		for _, s := range r.spans {
			self[s.layer()] += float64(s.End-s.Start-children[s.ID]) / 1e3
		}
		selfs = append(selfs, self)
		roots = append(roots, root)
	}
	layers := map[string][]float64{}
	for _, self := range selfs {
		for l := range self {
			layers[l] = nil
		}
	}
	for l := range layers {
		for _, self := range selfs {
			layers[l] = append(layers[l], self[l])
		}
	}
	return layers, roots
}

// selfMetric names the metric that reports a layer's median self time.
var selfMetric = map[string]string{
	"client":  "client.self_us",
	"server":  "server.overhead_p50_us",
	"fleet":   "fleet.self_p50_us",
	"zoomie":  "zoomie.self_p50_us",
	"history": "history.reconstruct_us",
	"farm":    "farm.self_p50_us",
}

// setSelfMetrics reports each layer's median self time over the traced
// requests nearest the median duration (within 5% of it, and at least
// the ten nearest) — the layer medians then describe the median request
// and sum to about its duration, which over all requests skewed layers
// would not — and the sum of those medians against the requests' median
// duration (trace.selfsum_ratio). It also reports trace_overhead: the
// traced op median over the untraced one, both from this run's
// alternating blocks.
func (t *tracer) setSelfMetrics(res *runResult, untracedP50 float64) {
	all := t.rootDurations()
	p50 := median(all)
	dist := make([]float64, len(all))
	for i, d := range all {
		dist[i] = math.Abs(d - p50)
	}
	sort.Float64s(dist)
	reach := 0.05 * p50
	if len(dist) > 0 {
		reach = max(reach, dist[min(len(dist), 10)-1])
	}
	layers, roots := t.selfTimes(p50-reach, p50+reach)
	if len(roots) == 0 {
		return
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	sum := 0.0
	parts := make([]string, 0, len(names))
	for _, l := range names {
		m := median(layers[l])
		sum += m
		parts = append(parts, fmt.Sprintf("%s=%.1f", l, m))
		if name, ok := selfMetric[l]; ok {
			res.set(name, m)
		}
	}
	res.set("trace.selfsum_ratio", ratio(sum, median(roots)))
	res.set("trace_overhead", ratio(p50, untracedP50))
	res.note("self-time medians (us) of the %d traced requests nearest the median: %s; sum %.1f vs their median %.1f; traced op p50 %.1f, untraced %.1f",
		len(roots), strings.Join(parts, " "), sum, median(roots), p50, untracedP50)
}

// maxTraceSpans bounds the spans written to the trace file.
const maxTraceSpans = 50_000

// write saves the spans as <dir>/trace_<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	var spans []span
	for _, r := range t.reqs {
		if len(spans)+len(r.spans) > maxTraceSpans {
			break
		}
		spans = append(spans, r.spans...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Requests int    `json:"requests"`
		Spans    []span `json:"spans"`
	}{workload, seed, len(t.reqs), spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// linkConn wraps one coordinator-to-daemon connection in a traced
// fleet run (installed through fleet.Config.DialFor). Links carry several
// sessions' requests plus heartbeats, so instead of pairing by time it
// splits the byte stream into frames, keeping each small frame with the
// time its request finished writing or its response started arriving;
// requests and responses are paired by id after the run.
type linkConn struct {
	net.Conn
	mu   sync.Mutex
	w, r splitter
}

func (c *linkConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		now := time.Now().UnixNano()
		c.mu.Lock()
		c.w.feed(p[:n], now, true)
		c.mu.Unlock()
	}
	return n, err
}

func (c *linkConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now().UnixNano()
		c.mu.Lock()
		c.r.feed(p[:n], now, false)
		c.mu.Unlock()
	}
	return n, err
}

// maxLinkFrame is the largest frame a splitter keeps; bigger ones
// (checkpoint exports and imports) are skipped, and so is everything
// past maxLinkFrames frames.
const (
	maxLinkFrame  = 4 << 10
	maxLinkFrames = 1 << 20
)

type capFrame struct {
	at   int64
	data []byte // nil for skipped frames
}

// splitter cuts a length-prefixed byte stream into frames.
type splitter struct {
	hdr    []byte
	body   []byte
	need   int // payload bytes still due for the current frame; 0 = reading a header
	skip   bool
	at     int64
	frames []capFrame
}

func (s *splitter) feed(p []byte, now int64, write bool) {
	for len(p) > 0 {
		if s.need == 0 {
			if len(s.hdr) == 0 {
				s.at = now
			}
			k := min(4-len(s.hdr), len(p))
			s.hdr = append(s.hdr, p[:k]...)
			p = p[k:]
			if len(s.hdr) < 4 {
				continue
			}
			s.need = int(binary.BigEndian.Uint32(s.hdr))
			s.skip = s.need > maxLinkFrame || len(s.frames) >= maxLinkFrames
			if !s.skip {
				s.body = append([]byte(nil), s.hdr...)
			}
			s.hdr = s.hdr[:0]
			continue
		}
		k := min(s.need, len(p))
		if !s.skip {
			s.body = append(s.body, p[:k]...)
		}
		s.need -= k
		p = p[k:]
		if s.need == 0 {
			at := s.at
			if write {
				at = now
			}
			if len(s.frames) < maxLinkFrames {
				s.frames = append(s.frames, capFrame{at: at, data: s.body})
			}
			s.body = nil
		}
	}
}

// linkSample is one request/response round trip on a daemon link.
type linkSample struct {
	key        string
	sent, recv int64
}

// linkSamples pairs the captured requests and responses of every link
// by id. The first frame each way is the JSON hello; the rest are v3.
func linkSamples(conns []*linkConn) []linkSample {
	var out []linkSample
	for _, c := range conns {
		c.mu.Lock()
		wf, rf := c.w.frames, c.r.frames
		c.mu.Unlock()
		sent := map[uint64]linkSample{}
		for i, f := range wf {
			if i == 0 || f.data == nil {
				continue
			}
			m, _, err := wire.ReadMessageV(bytes.NewReader(f.data), wire.Version)
			if err != nil || m.Req == nil {
				continue
			}
			if key := requestKey(m.Req); key != "" {
				sent[m.Req.ID] = linkSample{key: key, sent: f.at}
			}
		}
		for i, f := range rf {
			if i == 0 || f.data == nil {
				continue
			}
			m, _, err := wire.ReadMessageV(bytes.NewReader(f.data), wire.Version)
			if err != nil || m.Resp == nil {
				continue
			}
			if s, ok := sent[m.Resp.ID]; ok {
				s.recv = f.at
				out = append(out, s)
				delete(sent, m.Resp.ID)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sent < out[j].sent })
	return out
}

// requestKey identifies a debug-mix request by content, so a forwarded
// request can be matched to the front request that caused it; other ops
// (heartbeats, checkpoints) get "".
func requestKey(r *wire.Request) string {
	switch r.Op {
	case wire.OpPeek:
		return "peek|" + r.Name
	case wire.OpPeekBatch:
		if len(r.Items) == 0 {
			return ""
		}
		return "peekbatch|" + r.Items[0].Name
	case wire.OpPoke:
		return fmt.Sprintf("poke|%s|%d", r.Name, r.Value)
	case wire.OpStep:
		return fmt.Sprintf("step|%d", r.N)
	case wire.OpSessStat:
		return "sessstat"
	}
	return ""
}

// opKey is requestKey for a scripted op.
func opKey(op debugOp, regs []regInfo) string {
	switch op.kind {
	case opPeek:
		return "peek|" + regs[op.regs[0]].name
	case opPeekBatch:
		return "peekbatch|" + regs[op.regs[0]].name
	case opPoke:
		return fmt.Sprintf("poke|%s|%d", regs[op.regs[0]].name, op.value)
	case opStep:
		return fmt.Sprintf("step|%d", op.n)
	}
	return "sessstat"
}
