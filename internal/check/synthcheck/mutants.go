package synthcheck

import (
	"fmt"
	"sync/atomic"

	"zoomie/internal/farm"
	"zoomie/internal/fpga"
	"zoomie/internal/gen"
	"zoomie/internal/place"
	"zoomie/internal/route"
	"zoomie/internal/rtl"
	"zoomie/internal/synth"
	"zoomie/internal/toolchain"
	"zoomie/internal/vti"
)

// mutant is one planned toolchain fault. Victims are captured by NAME
// from the full design's clean compile, and arm re-resolves them against
// whatever design it is given: on a shrunk subset that no longer contains
// the victim, the hooks simply never fire (reported through rec), so the
// shrinker learns that the victim's partition is load-bearing and keeps
// it — which is how minimal repros stay faithful to the fault.
type mutant struct {
	Kind string
	Flow string // FlowMono | FlowIncr | FlowVTI | FlowFarm
	Part string // victim instance ("" = whole-design faults)

	// arm builds the injection against hd. rec must be called every time
	// the fault actually lands. ok=false means the mutant cannot apply to
	// this design at all (e.g. it needs two children and one is left).
	arm func(hd *gen.HierDesign, rec func()) (inj *toolchain.Inject, store synth.Store, ok bool)
}

// staleStore wraps a checkpoint store and serves a wrong module netlist
// for one digest — the modeled "stale checkpoint reuse" bug in
// content-addressed digest lookup.
type staleStore struct {
	synth.Store
	victim synth.Digest
	serve  *synth.ModuleNetlist
	rec    func()
}

func (s *staleStore) Load(d synth.Digest) (*synth.ModuleNetlist, bool) {
	if d == s.victim {
		s.rec()
		return s.serve, true
	}
	return s.Store.Load(d)
}

// modByName finds a child module by module name.
func modByName(hd *gen.HierDesign, name string) *rtl.Module {
	for _, m := range hd.Mods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// hasPart reports whether the design still instantiates the part.
func hasPart(hd *gen.HierDesign, part string) bool {
	for _, p := range hd.Parts {
		if p == part {
			return true
		}
	}
	return false
}

// partRegs lists the flat register names belonging to one instance.
func partRegs(hd *gen.HierDesign, part string) []string {
	var out []string
	prefix := part + "."
	for _, r := range hd.Regs {
		if len(r.Name) > len(prefix) && r.Name[:len(prefix)] == prefix {
			out = append(out, r.Name)
		}
	}
	return out
}

// childNet returns the clean netlist of one top-level instance.
func childNet(env *caseEnv, part string) *synth.ModuleNetlist {
	for _, ch := range env.mono.Netlist.Children {
		if ch.Name == part {
			return ch.Netlist
		}
	}
	return nil
}

// catalog plans every mutant kind against one design, pinning victims
// from the clean compile. Parts are assigned round-robin so faults spread
// across partitions; kinds whose precondition the design cannot meet
// (e.g. no memories) are omitted and reported as skipped by the caller.
func catalog(env *caseEnv) []*mutant {
	hd := env.hd
	part := func(i int) string { return hd.Parts[i%len(hd.Parts)] }
	var muts []*mutant

	// synth-lutmask: techmapping emits a wrong LUT count for one cell.
	{
		p := part(0)
		mod := moduleOf(hd, p)
		cn := childNet(env, p)
		if cn != nil && len(cn.Cells) > 0 {
			cell := cn.Cells[0].Name
			muts = append(muts, &mutant{
				Kind: "synth-lutmask", Flow: FlowVTI, Part: p,
				arm: func(hd *gen.HierDesign, rec func()) (*toolchain.Inject, synth.Store, bool) {
					if modByName(hd, mod) == nil {
						return nil, nil, false
					}
					return &toolchain.Inject{Synth: func(m *rtl.Module, n *synth.ModuleNetlist) {
						if m.Name != mod {
							return
						}
						for i := range n.Cells {
							if n.Cells[i].Name == cell {
								n.Cells[i].Res[fpga.LUT] += 7
								rec()
								return
							}
						}
					}}, nil, true
				},
			})
		}
	}

	// synth-ffwidth: a register cell loses one flip-flop — the mapped
	// width disagrees with the elaborated RTL.
	{
		p := part(1)
		mod := moduleOf(hd, p)
		muts = append(muts, &mutant{
			Kind: "synth-ffwidth", Flow: FlowMono, Part: p,
			arm: func(hd *gen.HierDesign, rec func()) (*toolchain.Inject, synth.Store, bool) {
				if modByName(hd, mod) == nil {
					return nil, nil, false
				}
				return &toolchain.Inject{Synth: func(m *rtl.Module, n *synth.ModuleNetlist) {
					if m.Name != mod {
						return
					}
					for i := range n.Cells {
						if n.Cells[i].Name == "r0" && n.Cells[i].Res[fpga.FF] >= 2 {
							n.Cells[i].Res[fpga.FF]--
							rec()
							return
						}
					}
				}}, nil, true
			},
		})
	}

	// synth-fanindrop: a cell silently loses one fanin whose producer is
	// a sibling cell — a dangling logical connection.
	{
		p := part(2)
		mod := moduleOf(hd, p)
		cn := childNet(env, p)
		if cell, fanin := findDroppableFanin(cn); cell != "" {
			muts = append(muts, &mutant{
				Kind: "synth-fanindrop", Flow: FlowVTI, Part: p,
				arm: func(hd *gen.HierDesign, rec func()) (*toolchain.Inject, synth.Store, bool) {
					if modByName(hd, mod) == nil {
						return nil, nil, false
					}
					return &toolchain.Inject{Synth: func(m *rtl.Module, n *synth.ModuleNetlist) {
						if m.Name != mod {
							return
						}
						for i := range n.Cells {
							if n.Cells[i].Name != cell {
								continue
							}
							kept := n.Cells[i].Fanin[:0]
							hit := false
							for _, f := range n.Cells[i].Fanin {
								if !hit && f == fanin {
									hit = true
									continue
								}
								kept = append(kept, f)
							}
							n.Cells[i].Fanin = kept
							if hit {
								rec()
							}
							return
						}
					}}, nil, true
				},
			})
		}
	}

	// store-stale: the checkpoint store serves another module's netlist
	// for the victim's digest — broken content addressing. The victim is
	// deliberately NOT the farm's edit partition (the edit changes that
	// module's digest, dodging the stale entry).
	if len(hd.Parts) >= 2 {
		victimPart := hd.Parts[len(hd.Parts)-1]
		vMod := moduleOf(hd, victimPart)
		wrongMod := moduleOf(hd, hd.Parts[0])
		muts = append(muts, &mutant{
			Kind: "store-stale", Flow: FlowFarm, Part: victimPart,
			arm: func(hd *gen.HierDesign, rec func()) (*toolchain.Inject, synth.Store, bool) {
				vm, wm := modByName(hd, vMod), modByName(hd, wrongMod)
				if vm == nil || wm == nil || vm == wm {
					return nil, nil, false
				}
				c := synth.NewCache()
				serve, err := c.Module(wm)
				if err != nil {
					return nil, nil, false
				}
				st := &staleStore{Store: synth.NewMemStore(0), victim: c.Digest(vm), serve: serve, rec: rec}
				return nil, st, true
			},
		})
	}

	// place-swapnet: legalization swaps the frame addresses of two nets.
	{
		p := part(4)
		muts = append(muts, &mutant{
			Kind: "place-swapnet", Flow: FlowFarm, Part: p,
			arm: func(hd *gen.HierDesign, rec func()) (*toolchain.Inject, synth.Store, bool) {
				regs := partRegs(hd, p)
				if len(regs) < 2 {
					return nil, nil, false
				}
				return &toolchain.Inject{Place: func(pl *place.Placement) {
					for i := 0; i < len(regs); i++ {
						for j := i + 1; j < len(regs); j++ {
							if pl.SwapRegAddrs(regs[i], regs[j]) {
								rec()
								return
							}
						}
					}
				}}, nil, true
			},
		})
	}

	// place-tileswap: two cells from different tiles trade places without
	// the state map following.
	{
		p := part(5)
		cn := childNet(env, p)
		if cn != nil && len(cn.Cells) > 0 {
			a := p + "." + cn.Cells[0].Name
			const b = "tr0" // top-level cell, always in a static-region tile
			muts = append(muts, &mutant{
				Kind: "place-tileswap", Flow: FlowMono, Part: p,
				arm: func(hd *gen.HierDesign, rec func()) (*toolchain.Inject, synth.Store, bool) {
					if !hasPart(hd, p) {
						return nil, nil, false
					}
					return &toolchain.Inject{Place: func(pl *place.Placement) {
						ia, oka := cellIndex(pl, a)
						ib, okb := cellIndex(pl, b)
						if oka && okb && pl.Tiles[ia] != pl.Tiles[ib] {
							pl.Tiles[ia], pl.Tiles[ib] = pl.Tiles[ib], pl.Tiles[ia]
							rec()
						}
					}}, nil, true
				},
			})
		}
	}

	// place-statemapdrop: a register vanishes from the logic-location
	// metadata entirely.
	{
		p := part(6)
		name := p + ".r0"
		muts = append(muts, &mutant{
			Kind: "place-statemapdrop", Flow: FlowMono, Part: p,
			arm: func(hd *gen.HierDesign, rec func()) (*toolchain.Inject, synth.Store, bool) {
				if !hasPart(hd, p) {
					return nil, nil, false
				}
				return &toolchain.Inject{Place: func(pl *place.Placement) {
					if pl.DropReg(name) {
						rec()
					}
				}}, nil, true
			},
		})
	}

	// place-bitoff: a register's frame bit offset is off by one.
	{
		p := part(7)
		muts = append(muts, &mutant{
			Kind: "place-bitoff", Flow: FlowIncr, Part: p,
			arm: func(hd *gen.HierDesign, rec func()) (*toolchain.Inject, synth.Store, bool) {
				regs := partRegs(hd, p)
				if len(regs) == 0 {
					return nil, nil, false
				}
				want := make(map[string]bool, len(regs))
				for _, r := range regs {
					want[r] = true
				}
				return &toolchain.Inject{Place: func(pl *place.Placement) {
					sm := pl.StateMap
					for i := range sm.Regs {
						r := &sm.Regs[i]
						if want[r.Name] && r.Addr.Bit+1+r.Width <= fpga.FrameBits {
							r.Addr.Bit++
							rec()
							return
						}
					}
				}}, nil, true
			},
		})
	}

	// place-memshift: a memory's frame window starts one frame late.
	if mp, memName := firstMem(hd); memName != "" {
		muts = append(muts, &mutant{
			Kind: "place-memshift", Flow: FlowVTI, Part: mp,
			arm: func(hd *gen.HierDesign, rec func()) (*toolchain.Inject, synth.Store, bool) {
				if !hasPart(hd, mp) {
					return nil, nil, false
				}
				return &toolchain.Inject{Place: func(pl *place.Placement) {
					sm := pl.StateMap
					for i := range sm.Mems {
						if sm.Mems[i].Name == memName {
							sm.Mems[i].StartFrame++
							rec()
							return
						}
					}
				}}, nil, true
			},
		})
	}

	// place-partition-leak: a partition cell is reassigned to the static
	// region's ownership records.
	{
		p := part(9)
		name := p + ".r0"
		muts = append(muts, &mutant{
			Kind: "place-partition-leak", Flow: FlowMono, Part: p,
			arm: func(hd *gen.HierDesign, rec func()) (*toolchain.Inject, synth.Store, bool) {
				if !hasPart(hd, p) {
					return nil, nil, false
				}
				return &toolchain.Inject{Place: func(pl *place.Placement) {
					if i, ok := cellIndex(pl, name); ok && pl.Parts[i] != place.StaticPartition {
						pl.Parts[i] = place.StaticPartition
						rec()
					}
				}}, nil, true
			},
		})
	}

	// route-drop: the router loses the last routed segment.
	muts = append(muts, &mutant{
		Kind: "route-drop", Flow: FlowIncr, Part: "",
		arm: func(hd *gen.HierDesign, rec func()) (*toolchain.Inject, synth.Store, bool) {
			return &toolchain.Inject{Route: func(r *route.Result) {
				if len(r.Edges) > 0 {
					r.DropEdge(len(r.Edges) - 1)
					rec()
				}
			}}, nil, true
		},
	})

	return muts
}

// moduleOf maps an instance name to its child module's name.
func moduleOf(hd *gen.HierDesign, part string) string {
	for i, p := range hd.Parts {
		if p == part {
			return hd.Mods[i].Name
		}
	}
	return ""
}

// firstMem returns the owning part and flat name of the design's first
// memory, or "","".
func firstMem(hd *gen.HierDesign) (part, name string) {
	if len(hd.Mems) == 0 {
		return "", ""
	}
	name = hd.Mems[0].Name
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i], name
		}
	}
	return "", name
}

// cellIndex returns the position of the named cell in the placement's
// flat cell table.
func cellIndex(pl *place.Placement, name string) (int, bool) {
	for i := range pl.Cells {
		if pl.Cells[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// findDroppableFanin locates (cell, fanin) in a child netlist where the
// fanin is produced by a sibling cell of the same module, so the routed
// edge between them provably exists.
func findDroppableFanin(cn *synth.ModuleNetlist) (cell, fanin string) {
	if cn == nil {
		return "", ""
	}
	producers := make(map[string]bool, len(cn.Cells))
	for _, c := range cn.Cells {
		producers[c.Name] = true
	}
	for _, c := range cn.Cells {
		for _, f := range c.Fanin {
			if producers[f] {
				return c.Name, f
			}
		}
	}
	return "", ""
}

// runMutant compiles one mutant through its designated flow and asks the
// layered oracle for a verdict. Returns applied=false when the fault
// never landed (victims absent — possible on shrunk subsets, a skip on
// the full design).
func runMutant(env *caseEnv, m *mutant) (applied, killed bool, via string, err error) {
	if m.Flow == FlowFarm {
		return runFarmMutant(env, m)
	}
	var hits atomic.Int32
	inj, store, ok := m.arm(env.hd, func() { hits.Add(1) })
	if !ok {
		return false, false, "", nil
	}
	if inj == nil {
		inj = &toolchain.Inject{}
	}
	if inj.Store == nil {
		inj.Store = store
	}
	fopts := env.opts
	fopts.Inject = inj

	var res *toolchain.Result
	var cerr error
	switch m.Flow {
	case FlowMono:
		res, cerr = toolchain.Compile(env.hd.RTL, fopts)
	case FlowIncr:
		res, cerr = toolchain.CompileIncremental(env.mono, env.hd.RTL, fopts)
	case FlowVTI:
		var vres *vti.Result
		vres, cerr = vti.Compile(env.hd.RTL, fopts)
		if vres != nil {
			res = vres.Result
		}
	default:
		return false, false, "", fmt.Errorf("synthcheck: unknown flow %q", m.Flow)
	}

	if hits.Load() == 0 {
		if cerr != nil {
			return false, false, "", fmt.Errorf("synthcheck: %s/%s compile failed before injection: %w", m.Kind, m.Flow, cerr)
		}
		return false, false, "", nil
	}
	if cerr != nil {
		return true, true, "compile-error", nil
	}
	if d := env.fp.diff(fingerprintOf(res)); d != "" {
		return true, true, "fingerprint:" + d, nil
	}
	if res.Image != nil {
		b := boardRun(res.Image, env.trace)
		if i := firstDiff(b, env.ref); i >= 0 {
			return true, true, fmt.Sprintf("behavior@%d", i), nil
		}
	}
	return true, false, "", nil
}

// runFarmMutant runs the fault through the compile farm: base compile
// and warm recompile both pass through the injected hooks and store, and
// the warm artifact is compared against the clean cold compile of the
// same edit.
func runFarmMutant(env *caseEnv, m *mutant) (applied, killed bool, via string, err error) {
	if err := env.farmInit(); err != nil {
		return false, false, "", err
	}
	var hits atomic.Int32
	inj, store, ok := m.arm(env.hd, func() { hits.Add(1) })
	if !ok {
		return false, false, "", nil
	}
	cfg := farm.Config{Store: store}
	f := farm.New(cfg)
	sopts := toolchain.Options{Clocks: env.hd.Clocks, Inject: inj}
	wj, _, serr := f.Recompile(env.farmSpec(sopts), 1)
	if serr != nil {
		return false, false, "", fmt.Errorf("synthcheck: %s farm submit: %w", m.Kind, serr)
	}
	werr := wj.Wait(bgCtx())
	if hits.Load() == 0 {
		if werr != nil {
			return false, false, "", fmt.Errorf("synthcheck: %s farm compile failed before injection: %w", m.Kind, werr)
		}
		return false, false, "", nil
	}
	if werr != nil {
		return true, true, "compile-error", nil
	}
	warm := wj.Result()
	if d := env.coldFP.diff(fingerprintOf(warm.Result)); d != "" {
		return true, true, "fingerprint:" + d, nil
	}
	img, ierr := toolchain.BuildImage(warm.Design, warm.Placement, env.editOpts)
	if ierr != nil {
		return true, true, "image-error", nil
	}
	b := boardRun(img, env.editOps)
	if i := firstDiff(b, env.editRef); i >= 0 {
		return true, true, fmt.Sprintf("behavior@%d", i), nil
	}
	return true, false, "", nil
}
