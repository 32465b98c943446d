package check

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"zoomie"
	"zoomie/internal/client"
	"zoomie/internal/faults"
	"zoomie/internal/gen"
	"zoomie/internal/server"
	"zoomie/internal/wire"
)

// Config tunes a differential run. Every knob feeds a seeded generator;
// equal configs produce byte-identical reports on Out. Timing and other
// wall-clock noise goes to Errw only.
type Config struct {
	Seed    int64
	Designs int // random designs to generate
	Scripts int // total scripts, distributed round-robin across designs
	Ops     int // ops per script
	Asserts int // assertions compiled into each design (default 2)
	// Chaos overrides the default transient-only fault profile of the
	// third target. Profiles must be transient (no WedgeAfter): the
	// resilient transport then recovers every fault, which is exactly
	// the property the chaos target checks.
	Chaos *faults.Profile
	// ArtifactDir, when set, receives one JSON repro per divergence.
	ArtifactDir string
	// ShrinkBudget bounds how many re-executions the shrinker may spend
	// per divergence (default 48; 0 keeps the default, <0 disables).
	ShrinkBudget int
	// Stream keeps a v3 counters stream open on the clean server for the
	// whole campaign, consuming aggregated frames concurrently with the
	// differential scripts. The point is interference checking: streaming
	// observability must not perturb debug semantics, so a -stream run
	// must stay divergence-free with byte-identical Out. Frame and event
	// totals are wall-clock-dependent and land in the Summary and Errw.
	Stream bool
	Out    io.Writer // deterministic report
	Errw   io.Writer // timing, progress
}

// Summary is the outcome of a differential run.
type Summary struct {
	Designs     int
	Scripts     int
	Ops         int // total ops executed per target
	Records     int // total records compared (per pair)
	Divergences int
	Artifacts   []string
	// StreamFrames/StreamEvents total what the campaign-long counters
	// stream delivered when Config.Stream was set (wall-clock dependent).
	StreamFrames uint64
	StreamEvents uint64
	Elapsed      time.Duration
}

// designSpec pins one generated design: rebuild it any time from the
// two sub-seeds, independent of how many designs preceded it.
type designSpec struct {
	Name    string `json:"name"`
	DSeed   int64  `json:"dseed"`
	ASeed   int64  `json:"aseed"`
	Asserts int    `json:"asserts"`
}

// build regenerates the design and its assertion set.
func (sp designSpec) build() (*gen.Design, []string) {
	d := gen.RandomDesign(rand.New(rand.NewSource(sp.DSeed)))
	asserts := gen.RandomAssertions(rand.New(rand.NewSource(sp.ASeed)), d.Outputs, sp.Asserts)
	return d, asserts
}

// register installs the spec in the server catalog so both zoomied
// instances (and the local facade, which shares the catalog path) can
// attach it by name.
func (sp designSpec) register() {
	server.Register(sp.Name, server.Entry{
		Describe: fmt.Sprintf("zcheck generated design (dseed=%d)", sp.DSeed),
		Build: func() (*zoomie.Design, zoomie.DebugConfig) {
			d, asserts := sp.build()
			return d.RTL, zoomie.DebugConfig{
				Watches:     d.OutputNames(),
				Assertions:  asserts,
				ExtraClocks: d.Clocks[1:],
			}
		},
	})
}

// DefaultChaos is the transient-only fault profile the third target
// debugs through: bit flips on both directions, dropped and duplicated
// frame writes, and transient command errors — every one recoverable by
// the resilient transport, none permanent. Wedges are deliberately
// excluded: a wedged board migrates the session, which legitimately
// changes timing-visible state and would drown real divergences.
func DefaultChaos(seed int64) *faults.Profile {
	return &faults.Profile{
		Seed:      seed,
		ReadFlip:  0.01,
		WriteFlip: 0.01,
		Drop:      0.005,
		Dup:       0.005,
		Exec:      0.005,
	}
}

// fleet is the harness's set of backends: one clean zoomied, one chaos
// zoomied, plus the in-process path. Targets for one design come in the
// fixed order local, remote, chaos.
type fleet struct {
	servers []*server.Server
	done    []chan error
	clean   *client.Client
	chaos   *client.Client
}

func startServer(cfg server.Config) (*server.Server, string, chan error, error) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), done, nil
}

func newFleet(chaos *faults.Profile) (*fleet, error) {
	f := &fleet{}
	srv, addr, done, err := startServer(server.Config{PoolSize: 4})
	if err != nil {
		return nil, err
	}
	f.servers = append(f.servers, srv)
	f.done = append(f.done, done)
	if f.clean, err = client.Dial(addr); err != nil {
		f.Close()
		return nil, err
	}
	csrv, caddr, cdone, err := startServer(server.Config{PoolSize: 4, Chaos: chaos})
	if err != nil {
		f.Close()
		return nil, err
	}
	f.servers = append(f.servers, csrv)
	f.done = append(f.done, cdone)
	if f.chaos, err = client.Dial(caddr); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) Close() {
	if f.clean != nil {
		f.clean.Close()
	}
	if f.chaos != nil {
		f.chaos.Close()
	}
	for _, s := range f.servers {
		s.Shutdown()
	}
	for _, d := range f.done {
		<-d
	}
}

// attach retries briefly: a just-detached session releases its board
// after the detach response is sent, so an immediate re-attach can race
// the pool for a moment.
func attach(c *client.Client, design string) (*client.Session, error) {
	var err error
	for i := 0; i < 100; i++ {
		var s *client.Session
		if s, err = c.Attach(design); err == nil {
			return s, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, fmt.Errorf("attach %s: %w", design, err)
}

// targets builds one fresh session per stack for a registered design.
// Creation is sequential — the chaos server salts each leased board's
// injector seed from a counter, so sequential attach order is part of
// the determinism contract.
func (f *fleet) targets(design string) ([]Target, error) {
	local, err := server.NewCatalogSessionWith(design, nil)
	if err != nil {
		return nil, fmt.Errorf("local session: %w", err)
	}
	remote, err := attach(f.clean, design)
	if err != nil {
		local.Close()
		return nil, err
	}
	chaos, err := attach(f.chaos, design)
	if err != nil {
		local.Close()
		remote.Detach()
		return nil, err
	}
	return []Target{NewLocalTarget(local), NewRemoteTarget(remote), NewRemoteTarget(chaos)}, nil
}

var targetNames = []string{"local", "remote", "chaos"}

// runOnce executes one script on all three stacks and returns the
// per-target results.
func (f *fleet) runOnce(design string, ops []gen.Op, probes []wire.BatchItem) ([]*Result, error) {
	ts, err := f.targets(design)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(ts))
	for i, t := range ts {
		results[i] = RunScript(t, design, ops, probes)
		t.Close()
	}
	return results, nil
}

// Run executes a full differential campaign. It returns an error only
// for harness-level failures (a server that will not start, a design
// that will not attach); behavioral divergences are reported in the
// Summary and on Out, not as errors.
func Run(cfg Config) (*Summary, error) {
	if cfg.Designs <= 0 {
		cfg.Designs = 1
	}
	if cfg.Scripts <= 0 {
		cfg.Scripts = 1
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 20
	}
	if cfg.Asserts == 0 {
		cfg.Asserts = 2
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	if cfg.Errw == nil {
		cfg.Errw = io.Discard
	}
	if cfg.Chaos == nil {
		cfg.Chaos = DefaultChaos(cfg.Seed)
	}
	if cfg.ShrinkBudget == 0 {
		cfg.ShrinkBudget = 48
	}
	start := time.Now()

	root := rand.New(rand.NewSource(cfg.Seed))
	specs := make([]designSpec, cfg.Designs)
	for i := range specs {
		specs[i] = designSpec{
			Name:    fmt.Sprintf("zc%d", i),
			DSeed:   root.Int63(),
			ASeed:   root.Int63(),
			Asserts: cfg.Asserts,
		}
		specs[i].register()
		defer server.Unregister(specs[i].Name)
	}

	f, err := newFleet(cfg.Chaos)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	sum := &Summary{Designs: cfg.Designs, Scripts: cfg.Scripts}

	// With -stream, a counters stream rides along for the whole campaign
	// on the clean server: the server's own command/peek/poke counters
	// move constantly under the differential load, so frames flow the
	// entire time, and the run still has to be divergence-free.
	var streamDone chan struct{}
	var streamClose func() error
	if cfg.Stream {
		st, err := f.clean.OpenStream(wire.StreamCounters, 0, 64, 20)
		if err != nil {
			return nil, fmt.Errorf("open counters stream: %w", err)
		}
		streamDone = make(chan struct{})
		streamClose = st.Close
		go func() {
			defer close(streamDone)
			for {
				ev, ok := st.Recv()
				if !ok {
					return
				}
				sum.StreamFrames++
				sum.StreamEvents += ev.Count
			}
		}()
	}
	for si := 0; si < cfg.Scripts; si++ {
		sp := specs[si%len(specs)]
		d, asserts := sp.build()
		sseed := int64(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + uint64(si+1)*0x85ebca6b)
		ops := gen.RandomScript(rand.New(rand.NewSource(sseed)), d, cfg.Ops, len(asserts))
		probes := ProbePlan(d)

		results, err := f.runOnce(sp.Name, ops, probes)
		if err != nil {
			return nil, fmt.Errorf("script %d on %s: %w", si, sp.Name, err)
		}
		sum.Ops += len(ops)
		sum.Records += len(results[0].Records)

		diverged := false
		for ti := 1; ti < len(results); ti++ {
			if idx, a, b := firstDiff(results[0], results[ti]); idx >= 0 {
				diverged = true
				fmt.Fprintf(cfg.Out, "DIVERGENCE design=%s script=%d pair=local/%s record=%d\n",
					sp.Name, si, targetNames[ti], idx)
				fmt.Fprintf(cfg.Out, "  local: %s\n  %s: %s\n", a, targetNames[ti], b)
			}
		}
		if diverged {
			sum.Divergences++
			art := &Artifact{
				Seed: cfg.Seed, ScriptSeed: sseed, Script: si,
				Spec: sp, Ops: ops,
			}
			if cfg.ShrinkBudget > 0 {
				art.Ops = Shrink(ops, func(cand []gen.Op) bool {
					rs, err := f.runOnce(sp.Name, cand, probes)
					if err != nil {
						return false
					}
					for ti := 1; ti < len(rs); ti++ {
						if idx, _, _ := firstDiff(rs[0], rs[ti]); idx >= 0 {
							return true
						}
					}
					return false
				}, cfg.ShrinkBudget)
				fmt.Fprintf(cfg.Out, "  shrunk %d ops -> %d\n", len(ops), len(art.Ops))
			}
			if cfg.ArtifactDir != "" {
				path, err := SaveArtifact(cfg.ArtifactDir, art)
				if err != nil {
					fmt.Fprintf(cfg.Errw, "artifact save failed: %v\n", err)
				} else {
					sum.Artifacts = append(sum.Artifacts, path)
					fmt.Fprintf(cfg.Out, "  artifact %s\n", path)
				}
			}
		}
		if (si+1)%10 == 0 {
			fmt.Fprintf(cfg.Errw, "zcheck: %d/%d scripts, %d divergences, %.1f scripts/sec\n",
				si+1, cfg.Scripts, sum.Divergences,
				float64(si+1)/time.Since(start).Seconds())
		}
	}
	if streamClose != nil {
		streamClose()
		<-streamDone
		fmt.Fprintf(cfg.Errw, "zcheck: counters stream rode along: %d frames, %d events aggregated\n",
			sum.StreamFrames, sum.StreamEvents)
	}
	sum.Elapsed = time.Since(start)
	fmt.Fprintf(cfg.Out, "zcheck seed=%d designs=%d scripts=%d ops=%d records=%d divergences=%d\n",
		cfg.Seed, sum.Designs, sum.Scripts, sum.Ops, sum.Records, sum.Divergences)
	return sum, nil
}

// firstDiff returns the first index where two results disagree, with
// both records, or -1. A missing record (shorter log) compares as
// "<missing>".
func firstDiff(a, b *Result) (int, string, string) {
	n := len(a.Records)
	if len(b.Records) > n {
		n = len(b.Records)
	}
	for i := 0; i < n; i++ {
		ra, rb := "<missing>", "<missing>"
		if i < len(a.Records) {
			ra = a.Records[i]
		}
		if i < len(b.Records) {
			rb = b.Records[i]
		}
		if ra != rb {
			return i, ra, rb
		}
	}
	return -1, "", ""
}
