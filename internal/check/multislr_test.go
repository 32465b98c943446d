package check

import (
	"math/rand"
	"strings"
	"testing"

	"zoomie"
	"zoomie/internal/gen"
	"zoomie/internal/server"
)

// shellU200 is a U200 whose primary keeps half its capacity for a shell,
// as on a real Alveo card.
func shellU200() *zoomie.Device {
	dev := zoomie.NewU200()
	primary := *dev.SLRs[dev.Primary]
	for i := range primary.Capacity {
		primary.Capacity[i] /= 2
	}
	dev.SLRs[dev.Primary] = &primary
	return dev
}

// TestMultiSLRDifferential keeps guarded multi-SLR streams under the
// three-leg oracle. Hop-ranked placement puts every campaign design on
// the primary SLR, so no campaign script selects a secondary one. This
// generated design is compiled as one VTI partition onto a U200 whose
// primary holds a shell: the partition lands one hop out on SLR 2, while
// the Debug Controller and the assertion monitors stay on the primary.
// Every script must then agree across the local, remote and chaos legs
// while the cable hops between the two SLRs.
func TestMultiSLRDifferential(t *testing.T) {
	const scripts, opsPer = 20, 20
	sp := designSpec{Name: "zc-multislr", DSeed: 7, ASeed: 8, Asserts: 2}
	server.Register(sp.Name, server.Entry{
		Describe: "zcheck generated design on a shell-reduced primary",
		Build: func() (*zoomie.Design, zoomie.DebugConfig) {
			d, asserts := sp.build()
			return d.RTL, zoomie.DebugConfig{
				Watches:     d.OutputNames(),
				Assertions:  asserts,
				ExtraClocks: d.Clocks[1:],
				Compile: zoomie.CompileOptions{
					Device:     shellU200(),
					Partitions: []zoomie.PartitionSpec{{Name: "user", Paths: []string{"dut"}}},
				},
			}
		},
	})
	defer server.Unregister(sp.Name)

	f, err := newFleet(DefaultChaos(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	d, asserts := sp.build()
	probes := ProbePlan(d)
	var records, hops int
	for si := 0; si < scripts; si++ {
		ops := gen.RandomScript(rand.New(rand.NewSource(int64(si+1))), d, opsPer, len(asserts))
		ts, err := f.targets(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		local := ts[0].(*server.Local).Session()
		if si == 0 {
			checkShellPlacement(t, local)
		}
		results := make([]*Result, len(ts))
		for i, tg := range ts {
			results[i] = RunScript(tg, sp.Name, ops, probes)
		}
		hops += local.Cable.Chain.Stats.Hops
		for _, tg := range ts {
			tg.Close()
		}
		records += len(results[0].Records)
		for ti := 1; ti < len(results); ti++ {
			if idx, a, b := firstDiff(results[0], results[ti]); idx >= 0 {
				t.Errorf("script %d diverged at record %d:\n  local: %s\n  %s: %s",
					si, idx, a, targetNames[ti], b)
			}
		}
	}
	if hops == 0 {
		t.Error("the local leg's chain counted no BOUT hop: no script reached the secondary SLR")
	}
	t.Logf("%d scripts, %d records per leg, %d hops on the local leg", scripts, records, hops)
}

// checkShellPlacement pins the layout the test relies on: the user
// partition on SLR 2 (one hop), all static state — the controller's
// zdbg.* and the assertion monitors — on the primary, and some state in
// each.
func checkShellPlacement(t *testing.T, s *zoomie.Session) {
	t.Helper()
	primary := s.Result.Options.Device.Primary
	if got := s.Result.Placement.DebugSLR("user"); got != 2 {
		t.Fatalf("user partition on SLR %d, want 2", got)
	}
	perSLR := map[int]int{}
	for _, r := range s.Result.Image.Map.Regs {
		want := primary
		if strings.HasPrefix(r.Name, "dut.") {
			want = 2
		}
		if r.Addr.SLR != want {
			t.Errorf("register %s on SLR %d, want %d", r.Name, r.Addr.SLR, want)
		}
		perSLR[r.Addr.SLR]++
	}
	if perSLR[primary] == 0 || perSLR[2] == 0 {
		t.Fatalf("registers per SLR %v: the test needs state on SLRs %d and 2", perSLR, primary)
	}
	t.Logf("registers per SLR: %v", perSLR)
}
