// Package sim is a cycle-accurate, multi-clock-domain simulator for
// elaborated (flat) RTL designs.
//
// The simulator advances in ticks. Each clock domain has a period and
// phase measured in ticks; a domain "rises" on ticks where
// (tick-phase) mod period == 0. A tick proceeds in three steps:
//
//  1. for every rising and enabled domain, compute register next-values
//     and memory writes against the settled state (every public mutation
//     path leaves the design settled, so no settle is needed on entry),
//  2. commit the staged updates,
//  3. re-settle combinational logic downstream of the changed state.
//
// Two evaluation engines implement this contract. The interpreter walks
// rtl.Expr trees through rtl.Eval and re-settles everything; it is the
// reference semantics. The compiled engine (the default) lowers every
// expression to bytecode with pre-resolved value-array slots at New()
// time and settles incrementally: only assigns in the dirty fanout cone
// of actually-changed state are re-evaluated, in levelized order (see
// compile.go and dirty.go). It is the production engine; the interpreter
// is the reference it is held bit-identical to by the differential tests
// in diff_test.go.
//
// Clock gating is first-class: a domain may be gated by a combinational
// signal of the design itself (the Debug Controller's clock enable), which
// models the glitch-free BUFGCE-style primitives Zoomie relies on, or
// force-gated from the host, which models the configuration controller
// stopping a clock.
package sim

import (
	"fmt"
	"os"
	"sort"

	"zoomie/internal/rtl"
)

// ClockSpec describes one clock domain.
type ClockSpec struct {
	Name   string
	Period int // in ticks, >= 1
	Phase  int // tick offset of the first rising edge
}

// Engine selects the expression evaluation engine.
type Engine int

const (
	// EngineCompiled lowers expressions to bytecode at New() time and
	// settles incrementally. The default.
	EngineCompiled Engine = iota
	// EngineInterp tree-walks rtl.Eval and re-settles everything every
	// tick. The reference semantics; keep it for debugging suspected
	// engine bugs and for differential testing.
	EngineInterp
)

// Options configures a Simulator's evaluation strategy.
type Options struct {
	Engine Engine
}

// DefaultOptions are the options New uses. They are initialised from the
// environment (ZOOMIE_SIM_ENGINE=interp selects the reference engine)
// and may be overridden programmatically, e.g. by cmd/zbench's
// -simengine flag.
var DefaultOptions = optionsFromEnv()

func optionsFromEnv() Options {
	var o Options
	if os.Getenv("ZOOMIE_SIM_ENGINE") == "interp" {
		o.Engine = EngineInterp
	}
	return o
}

// Simulator executes a flat design.
type Simulator struct {
	Flat   *rtl.Flat
	clocks []ClockSpec

	sigIndex map[*rtl.Signal]int
	byName   map[string]*rtl.Signal
	vals     []uint64

	order []rtl.Assign // levelized combinational order (interpreter engine)

	memData   [][]uint64            // memory id (its Flat.Memories index) -> words
	memID     map[*rtl.Memory]int32 // memory -> id
	memByName map[string]int32

	regsByClock map[string][]*rtl.Register
	memWrites   map[string][]memWrite

	// gates maps a domain name to an optional in-design 1-bit gate signal;
	// hostGate force-disables a domain regardless of the in-design gate.
	gates    map[string]*rtl.Signal
	hostGate map[string]bool

	tick    uint64
	cycles  map[string]uint64 // completed rising edges per domain
	staged  []regUpdate
	stagedM []memUpdate

	// Commit-hook state (see hook.go). hookRegs/hookMems are scratch
	// delta buffers reused across ticks and host writes.
	hook     CommitHook
	hookRegs []RegDelta
	hookMems []MemDelta

	// Compiled engine state (nil/zero when running the interpreter).
	comp    *compiled
	dirty   *dirtyState
	stagedC []cMemUpdate
}

type memWrite struct {
	mem  *rtl.Memory
	port rtl.MemoryWritePort
}

type regUpdate struct {
	idx int
	val uint64
}

type memUpdate struct {
	mem  *rtl.Memory
	addr int
	val  uint64
}

// New builds a simulator for the flat design with the given clock domains
// using DefaultOptions. Every domain referenced by a register must be
// listed.
func New(f *rtl.Flat, clocks []ClockSpec) (*Simulator, error) {
	return NewWithOptions(f, clocks, DefaultOptions)
}

// NewWithOptions builds a simulator with an explicit engine selection.
func NewWithOptions(f *rtl.Flat, clocks []ClockSpec, opts Options) (*Simulator, error) {
	s := &Simulator{
		Flat:        f,
		clocks:      append([]ClockSpec(nil), clocks...),
		sigIndex:    make(map[*rtl.Signal]int, len(f.Signals)),
		byName:      make(map[string]*rtl.Signal, len(f.Signals)),
		memData:     make([][]uint64, len(f.Memories)),
		memID:       make(map[*rtl.Memory]int32, len(f.Memories)),
		memByName:   make(map[string]int32, len(f.Memories)),
		regsByClock: make(map[string][]*rtl.Register),
		memWrites:   make(map[string][]memWrite),
		gates:       make(map[string]*rtl.Signal),
		hostGate:    make(map[string]bool),
		cycles:      make(map[string]uint64),
	}
	known := make(map[string]bool)
	for _, c := range s.clocks {
		if c.Period < 1 {
			return nil, fmt.Errorf("sim: clock %q: period must be >= 1", c.Name)
		}
		if known[c.Name] {
			return nil, fmt.Errorf("sim: duplicate clock %q", c.Name)
		}
		known[c.Name] = true
	}
	for _, s2 := range f.Signals {
		s.sigIndex[s2] = len(s.vals)
		s.byName[s2.Name] = s2
		s.vals = append(s.vals, 0)
	}
	for _, r := range f.Registers {
		if !known[r.Clock] {
			return nil, fmt.Errorf("sim: register %q uses undeclared clock %q", r.Sig.Name, r.Clock)
		}
		s.regsByClock[r.Clock] = append(s.regsByClock[r.Clock], r)
		s.vals[s.sigIndex[r.Sig]] = r.Init
	}
	for i, mem := range f.Memories {
		data := make([]uint64, mem.Depth)
		for k, v := range mem.Init {
			data[k] = rtl.Truncate(v, mem.Width)
		}
		s.memData[i] = data
		s.memID[mem] = int32(i)
		s.memByName[mem.Name] = int32(i)
		for _, w := range mem.Writes {
			if !known[w.Clock] {
				return nil, fmt.Errorf("sim: memory %q uses undeclared clock %q", mem.Name, w.Clock)
			}
			s.memWrites[w.Clock] = append(s.memWrites[w.Clock], memWrite{mem, w})
		}
	}
	order, level, err := levelize(f)
	if err != nil {
		return nil, err
	}
	s.order = make([]rtl.Assign, len(order))
	for i, oi := range order {
		s.order[i] = f.Assigns[oi]
	}
	if opts.Engine == EngineCompiled {
		s.comp = compileProgram(f, s.sigIndex, s.memData, order, level)
		s.dirty = newDirtyState(f, s.comp, s.sigIndex, order, level)
	}
	s.settle()
	return s, nil
}

// levelize topologically sorts the combinational assignments so each is
// evaluated after all assignments it reads from. It returns the
// evaluation order as indices into f.Assigns plus each assignment's
// dependency level (0 = reads state and constants only). Registers,
// inputs and memory contents are state and impose no ordering.
func levelize(f *rtl.Flat) (order, level []int, err error) {
	producer := make(map[*rtl.Signal]int) // signal -> assign index
	for i, a := range f.Assigns {
		producer[a.Dst] = i
	}
	n := len(f.Assigns)
	deps := make([][]int, n)  // deps[i] = assigns that must run before i
	indeg := make([]int, n)   // number of unmet deps
	users := make([][]int, n) // reverse edges
	for i, a := range f.Assigns {
		seen := make(map[int]bool)
		a.Src.VisitSignals(func(sig *rtl.Signal) {
			if sig.Kind == rtl.KindWire || sig.Kind == rtl.KindOutput {
				if p, ok := producer[sig]; ok && !seen[p] {
					seen[p] = true
					deps[i] = append(deps[i], p)
				}
			}
		})
		indeg[i] = len(deps[i])
		for _, p := range deps[i] {
			users[p] = append(users[p], i)
		}
	}
	level = make([]int, n)
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order = make([]int, 0, n)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, i)
		for _, u := range users[i] {
			if level[i]+1 > level[u] {
				level[u] = level[i] + 1
			}
			indeg[u]--
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	if len(order) != n {
		var cyc []string
		for i := 0; i < n && len(cyc) < 8; i++ {
			if indeg[i] > 0 {
				cyc = append(cyc, f.Assigns[i].Dst.Name)
			}
		}
		sort.Strings(cyc)
		return nil, nil, fmt.Errorf("sim: combinational loop involving %v", cyc)
	}
	return order, level, nil
}

// SignalValue implements rtl.Env.
func (s *Simulator) SignalValue(sig *rtl.Signal) uint64 { return s.vals[s.sigIndex[sig]] }

// MemValue implements rtl.Env. Addresses wrap modulo the depth, matching
// the power-of-two truncation of real block RAM address ports.
func (s *Simulator) MemValue(mem *rtl.Memory, addr uint64) uint64 {
	data := s.memData[s.memID[mem]]
	return data[addr%uint64(len(data))]
}

// settle performs a full combinational settle with the active engine.
func (s *Simulator) settle() {
	if s.comp != nil {
		s.settleFullCompiled()
		return
	}
	for _, a := range s.order {
		s.vals[s.sigIndex[a.Dst]] = rtl.Eval(a.Src, s)
	}
}

// GateClock attaches an in-design 1-bit signal as the clock enable of a
// domain. When the signal settles to 0 in a tick, registers and memory
// writes of that domain hold their values for that tick.
func (s *Simulator) GateClock(domain, signalName string) error {
	sig := s.byName[signalName]
	if sig == nil {
		return fmt.Errorf("sim: no signal %q", signalName)
	}
	if sig.Width != 1 {
		return fmt.Errorf("sim: clock gate %q must be 1 bit", signalName)
	}
	s.gates[domain] = sig
	return nil
}

// SetHostGate force-gates (enabled=false) or releases a clock domain from
// the host side, independent of any in-design gate. This models the
// configuration microcontroller stopping the clock.
func (s *Simulator) SetHostGate(domain string, enabled bool) {
	s.hostGate[domain] = !enabled
}

// domainEnabled reports whether a domain's registers update this tick,
// assuming the domain rises.
func (s *Simulator) domainEnabled(domain string) bool {
	if s.hostGate[domain] {
		return false
	}
	if g, ok := s.gates[domain]; ok {
		return s.vals[s.sigIndex[g]] != 0
	}
	return true
}

// rises reports whether the clock domain has a rising edge at tick t.
func rises(c ClockSpec, t uint64) bool {
	pt := int64(t) - int64(c.Phase)
	return pt >= 0 && pt%int64(c.Period) == 0
}

// Tick advances the simulation by one tick. The design is settled on
// entry — New, WriteState (and Poke and PokeMem over it), Restore,
// Settle and the previous Tick all leave it settled — so register/memory
// update functions evaluate directly against current state.
func (s *Simulator) Tick() {
	if s.comp != nil {
		s.tickCompiled()
		return
	}
	s.staged = s.staged[:0]
	s.stagedM = s.stagedM[:0]
	for _, c := range s.clocks {
		if !rises(c, s.tick) {
			continue
		}
		if !s.domainEnabled(c.Name) {
			continue
		}
		s.cycles[c.Name]++
		for _, r := range s.regsByClock[c.Name] {
			if r.Enable.Width != 0 && rtl.Eval(r.Enable, s) == 0 {
				continue
			}
			var v uint64
			if r.Reset.Width != 0 && rtl.Eval(r.Reset, s) != 0 {
				v = r.Init
			} else {
				v = rtl.Eval(r.Next, s)
			}
			s.staged = append(s.staged, regUpdate{s.sigIndex[r.Sig], v})
		}
		for _, mw := range s.memWrites[c.Name] {
			if rtl.Eval(mw.port.Enable, s) == 0 {
				continue
			}
			addr := int(rtl.Eval(mw.port.Addr, s) % uint64(mw.mem.Depth))
			s.stagedM = append(s.stagedM, memUpdate{
				mem: mw.mem, addr: addr, val: rtl.Eval(mw.port.Data, s),
			})
		}
	}
	if hk := s.hook; hk != nil {
		// Change-detecting commit, matching the compiled engine, so the
		// hook sees only real deltas on either engine.
		s.hookRegs = s.hookRegs[:0]
		s.hookMems = s.hookMems[:0]
		for _, u := range s.staged {
			if s.vals[u.idx] != u.val {
				s.vals[u.idx] = u.val
				s.hookRegs = append(s.hookRegs, RegDelta{Slot: int32(u.idx), Val: u.val})
			}
		}
		for _, u := range s.stagedM {
			data := s.memData[s.memID[u.mem]]
			if data[u.addr] != u.val {
				data[u.addr] = u.val
				s.hookMems = append(s.hookMems, MemDelta{Mem: s.memID[u.mem], Addr: int32(u.addr), Val: u.val})
			}
		}
		s.tick++
		s.settle()
		hk.OnTick(s.tick, s.hookRegs, s.hookMems)
		return
	}
	for _, u := range s.staged {
		s.vals[u.idx] = u.val
	}
	for _, u := range s.stagedM {
		s.memData[s.memID[u.mem]][u.addr] = u.val
	}
	s.tick++
	s.settle()
}

// evalc executes one compiled expression on the scratch stack.
func (s *Simulator) evalc(x xref) uint64 {
	return runCode(s.comp.code[x.start:x.end], s.comp.stack, s.vals, s.comp.memData)
}

// tickCompiled is Tick on the compiled engine: bytecode evaluation of the
// update functions, change-detecting commit, and incremental settling of
// the dirty fanout cone.
func (s *Simulator) tickCompiled() {
	cp := s.comp
	s.staged = s.staged[:0]
	s.stagedC = s.stagedC[:0]
	for _, c := range s.clocks {
		if !rises(c, s.tick) {
			continue
		}
		if !s.domainEnabled(c.Name) {
			continue
		}
		s.cycles[c.Name]++
		regs := cp.regs[c.Name]
		for i := range regs {
			r := &regs[i]
			if r.hasEnable && s.evalc(r.enable) == 0 {
				continue
			}
			var v uint64
			if r.hasReset && s.evalc(r.reset) != 0 {
				v = r.init
			} else {
				v = s.evalc(r.next)
			}
			s.staged = append(s.staged, regUpdate{int(r.dst), v})
		}
		memw := cp.memw[c.Name]
		for i := range memw {
			w := &memw[i]
			if s.evalc(w.enable) == 0 {
				continue
			}
			addr := int32(s.evalc(w.addr) % w.depth)
			s.stagedC = append(s.stagedC, cMemUpdate{mem: w.mem, addr: addr, val: s.evalc(w.data)})
		}
	}
	hk := s.hook
	if hk != nil {
		s.hookRegs = s.hookRegs[:0]
		s.hookMems = s.hookMems[:0]
	}
	for _, u := range s.staged {
		if s.vals[u.idx] != u.val {
			s.vals[u.idx] = u.val
			s.dirty.markSig(u.idx)
			if hk != nil {
				s.hookRegs = append(s.hookRegs, RegDelta{Slot: int32(u.idx), Val: u.val})
			}
		}
	}
	for _, u := range s.stagedC {
		d := cp.memData[u.mem]
		if d[u.addr] != u.val {
			d[u.addr] = u.val
			s.dirty.markMem(int(u.mem))
			if hk != nil {
				s.hookMems = append(s.hookMems, MemDelta{Mem: u.mem, Addr: u.addr, Val: u.val})
			}
		}
	}
	s.tick++
	s.settleDirty()
	if hk != nil {
		hk.OnTick(s.tick, s.hookRegs, s.hookMems)
	}
}

// Run advances n ticks.
func (s *Simulator) Run(n int) {
	for i := 0; i < n; i++ {
		s.Tick()
	}
}

// RunUntil advances until cond returns true or limit ticks elapse; it
// returns the number of ticks advanced and whether cond was met.
func (s *Simulator) RunUntil(cond func() bool, limit int) (int, bool) {
	for i := 0; i < limit; i++ {
		if cond() {
			return i, true
		}
		s.Tick()
	}
	return limit, cond()
}

// Ticks returns the number of ticks elapsed since construction.
func (s *Simulator) Ticks() uint64 { return s.tick }

// Cycles returns the number of committed rising edges of a clock domain
// (gated edges are not counted, which is exactly the "design time" a
// paused design does not experience).
func (s *Simulator) Cycles(domain string) uint64 { return s.cycles[domain] }

// Lookup finds a signal by flat name.
func (s *Simulator) Lookup(name string) *rtl.Signal { return s.byName[name] }

// SlotOf resolves a register or input port by flat name to its
// value-array slot, the handle SlotValue and WriteState take. Wires and
// outputs are refused: they are functions of state, so forcing them
// would be overwritten by the next settle, which is also true on a real
// FPGA where only LUT/FF/BRAM state is writable through configuration.
func (s *Simulator) SlotOf(name string) (int32, error) {
	sig := s.byName[name]
	if sig == nil {
		return 0, fmt.Errorf("sim: no signal %q", name)
	}
	if sig.Kind == rtl.KindWire || sig.Kind == rtl.KindOutput {
		return 0, fmt.Errorf("sim: cannot force combinational signal %q", name)
	}
	return int32(s.sigIndex[sig]), nil
}

// MemOf resolves a memory by flat name to its id, the handle MemWord and
// WriteState take.
func (s *Simulator) MemOf(name string) (int32, error) {
	id, ok := s.memByName[name]
	if !ok {
		return 0, fmt.Errorf("sim: no memory %q", name)
	}
	return id, nil
}

// MemWord reads one word of a memory by id; addr must be in range.
func (s *Simulator) MemWord(id int32, addr int) uint64 { return s.memData[id][addr] }

// WriteState is a host write of resolved state: it stores every value,
// truncated to its slot's or memory's width, then settles the fanout of
// what changed once. Settling once is exact because combinational values
// are a function of state alone, and a write that changes nothing needs
// no settle: the design is settled on entry. The commit hook still sees
// each changed slot and word in an OnHostWrite of its own, in order, so
// a batch records exactly what poking its items one by one would.
func (s *Simulator) WriteState(regs []RegDelta, mems []MemDelta) {
	s.hookRegs, s.hookMems = s.hookRegs[:0], s.hookMems[:0]
	changed := false
	for _, d := range regs {
		nv := rtl.Truncate(d.Val, s.Flat.Signals[d.Slot].Width)
		if s.vals[d.Slot] == nv {
			continue
		}
		s.vals[d.Slot] = nv
		changed = true
		if s.dirty != nil {
			s.dirty.markSig(int(d.Slot))
		}
		if s.hook != nil {
			s.hookRegs = append(s.hookRegs, RegDelta{Slot: d.Slot, Val: nv})
		}
	}
	for _, d := range mems {
		data := s.memData[d.Mem]
		nv := rtl.Truncate(d.Val, s.Flat.Memories[d.Mem].Width)
		if data[d.Addr] == nv {
			continue
		}
		data[d.Addr] = nv
		changed = true
		if s.dirty != nil {
			s.dirty.markMem(int(d.Mem))
		}
		if s.hook != nil {
			s.hookMems = append(s.hookMems, MemDelta{Mem: d.Mem, Addr: d.Addr, Val: nv})
		}
	}
	switch {
	case s.dirty != nil:
		s.settleDirty()
	case changed:
		s.settle()
	}
	for i := range s.hookRegs {
		s.hook.OnHostWrite(s.hookRegs[i:i+1], nil)
	}
	for i := range s.hookMems {
		s.hook.OnHostWrite(nil, s.hookMems[i:i+1])
	}
}

// Peek reads any signal by flat name.
func (s *Simulator) Peek(name string) (uint64, error) {
	sig := s.byName[name]
	if sig == nil {
		return 0, fmt.Errorf("sim: no signal %q", name)
	}
	return s.SlotValue(int32(s.sigIndex[sig])), nil
}

// Poke writes an input port or register by flat name: a WriteState of
// one slot.
func (s *Simulator) Poke(name string, v uint64) error {
	slot, err := s.SlotOf(name)
	if err != nil {
		return err
	}
	s.WriteState([]RegDelta{{Slot: slot, Val: v}}, nil)
	return nil
}

// PeekMem reads one word of a memory by flat name.
func (s *Simulator) PeekMem(name string, addr int) (uint64, error) {
	id, err := s.memAt(name, addr)
	if err != nil {
		return 0, err
	}
	return s.MemWord(id, addr), nil
}

// PokeMem writes one word of a memory by flat name: a WriteState of one
// word.
func (s *Simulator) PokeMem(name string, addr int, v uint64) error {
	id, err := s.memAt(name, addr)
	if err != nil {
		return err
	}
	s.WriteState(nil, []MemDelta{{Mem: id, Addr: int32(addr), Val: v}})
	return nil
}

// memAt resolves a memory by flat name and checks a word address.
func (s *Simulator) memAt(name string, addr int) (int32, error) {
	id, err := s.MemOf(name)
	if err != nil {
		return 0, err
	}
	if addr < 0 || addr >= len(s.memData[id]) {
		return 0, fmt.Errorf("sim: memory %q: address %d out of range", name, addr)
	}
	return id, nil
}

// Settle recomputes all combinational signals with a full sweep. Every
// mutation path already leaves the design settled; tests and benchmarks
// call this to force or time the sweep.
func (s *Simulator) Settle() { s.settle() }
