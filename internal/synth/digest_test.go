package synth

import (
	"fmt"
	"sync"
	"testing"

	"zoomie/internal/rtl"
)

// buildAdderLeaf constructs a small module; calling it twice models two
// independent parses of the same source file (distinct pointers, equal
// content).
func buildAdderLeaf(extraReg bool) *rtl.Module {
	m := rtl.NewModule("leaf")
	a := m.Input("a", 8)
	q := m.Output("q", 8)
	r := m.Reg("r", 8, "clk", 0)
	m.SetNext(r, rtl.Add(rtl.S(r), rtl.S(a)))
	m.Connect(q, rtl.S(r))
	if extraReg {
		d := m.Reg("dbg", 8, "clk", 0)
		m.SetNext(d, rtl.S(r))
	}
	return m
}

func TestDigestEqualForIndependentParses(t *testing.T) {
	a := ModuleDigest(buildAdderLeaf(false))
	b := ModuleDigest(buildAdderLeaf(false))
	if a != b {
		t.Errorf("identical modules digest differently: %s vs %s", a.Short(), b.Short())
	}
	c := ModuleDigest(buildAdderLeaf(true))
	if a == c {
		t.Error("modified module kept the same digest")
	}
}

// TestDigestCoversBodyConstants is the synthcheck-era regression: two
// modules with identical structure (same ports, registers, operator
// tree) differing only in a literal constant inside the body must
// digest differently — a checkpoint keyed on shape alone would serve
// the wrong netlist.
func TestDigestCoversBodyConstants(t *testing.T) {
	build := func(k uint64) *rtl.Module {
		m := rtl.NewModule("konst")
		a := m.Input("a", 8)
		q := m.Output("q", 8)
		r := m.Reg("r", 8, "clk", 0)
		m.SetNext(r, rtl.Add(rtl.S(a), rtl.C(k, 8)))
		m.Connect(q, rtl.S(r))
		return m
	}
	if ModuleDigest(build(3)) == ModuleDigest(build(5)) {
		t.Error("body constant change did not change the digest")
	}
	if ModuleDigest(build(3)) != ModuleDigest(build(3)) {
		t.Error("equal-constant modules digest differently")
	}
}

func TestDigestCoversRegisterInit(t *testing.T) {
	m1 := buildAdderLeaf(false)
	m2 := buildAdderLeaf(false)
	m2.Registers[0].Init ^= 1
	if ModuleDigest(m1) == ModuleDigest(m2) {
		t.Error("register init change did not change the digest")
	}
}

// TestDigestUnrelatedModuleReorder is the partition-invalidation
// regression: reordering fields of one module must not invalidate the
// checkpoint of a sibling partition module.
func TestDigestUnrelatedModuleReorder(t *testing.T) {
	buildTop := func(reordered bool) *rtl.Module {
		unrelated := rtl.NewModule("unrelated")
		if reordered {
			_ = unrelated.Input("y", 4)
			_ = unrelated.Input("x", 4)
		} else {
			_ = unrelated.Input("x", 4)
			_ = unrelated.Input("y", 4)
		}
		o := unrelated.Output("o", 4)
		unrelated.Connect(o, rtl.Xor(rtl.S(unrelated.Signal("x")), rtl.S(unrelated.Signal("y"))))

		top := rtl.NewModule("top")
		in := top.Input("in", 8)
		out := top.Output("out", 8)
		w := top.Wire("w", 8)
		li := top.Instantiate("part", buildAdderLeaf(false))
		li.ConnectInput("a", rtl.S(in))
		li.ConnectOutput("q", w)
		uo := top.Wire("uo", 4)
		ui := top.Instantiate("u", unrelated)
		ui.ConnectInput("x", rtl.Slice(rtl.S(in), 3, 0))
		ui.ConnectInput("y", rtl.Slice(rtl.S(in), 7, 4))
		ui.ConnectOutput("o", uo)
		top.Connect(out, rtl.Xor(rtl.S(w), rtl.ZeroExt(rtl.S(uo), 8)))
		return top
	}

	t1 := buildTop(false)
	t2 := buildTop(true)
	if ModuleDigest(t1) == ModuleDigest(t2) {
		t.Error("reordering an unrelated module's ports should change its (and the top's) digest")
	}
	// The partition module's own digest is untouched by the sibling edit.
	if ModuleDigest(t1.Instances[0].Module) != ModuleDigest(t2.Instances[0].Module) {
		t.Error("unrelated module reorder invalidated the partition module digest")
	}

	// And through a shared store: compiling the reordered design reuses
	// the partition checkpoint — only the unrelated module and the top
	// (whose child digests changed) are remapped.
	store := NewMemStore(0)
	c1 := NewCacheWith(store)
	if _, err := c1.Module(t1); err != nil {
		t.Fatal(err)
	}
	c2 := NewCacheWith(store)
	if _, err := c2.Module(t2); err != nil {
		t.Fatal(err)
	}
	if c2.Hits() == 0 {
		t.Error("reordered sibling compile got no checkpoint hits for the partition")
	}
	if !c2.WasHit(t2.Instances[0].Module) {
		t.Error("partition module was remapped despite unchanged content")
	}
}

// TestCrossDesignReuse is the tentpole regression: two independent parses
// of the same design share checkpoints through a common store, where the
// old pointer-keyed cache shared nothing.
func TestCrossDesignReuse(t *testing.T) {
	store := NewMemStore(0)

	c1 := NewCacheWith(store)
	n1, err := c1.Module(buildAdderLeaf(false))
	if err != nil {
		t.Fatal(err)
	}
	if c1.CellCount() == 0 {
		t.Fatal("first compile mapped no cells")
	}

	c2 := NewCacheWith(store)
	n2, err := c2.Module(buildAdderLeaf(false))
	if err != nil {
		t.Fatal(err)
	}
	if c2.CellCount() != 0 {
		t.Errorf("second parse re-mapped %d cells; want 0 (checkpoint reuse)", c2.CellCount())
	}
	if c2.Hits() != 1 || c2.Misses() != 0 {
		t.Errorf("hits/misses = %d/%d, want 1/0", c2.Hits(), c2.Misses())
	}
	if n1 != n2 {
		t.Error("store returned a different netlist for the same digest")
	}
}

// TestConcurrentCacheAccess drives one shared store from many goroutines
// building overlapping hierarchies; run under -race in CI.
func TestConcurrentCacheAccess(t *testing.T) {
	store := NewMemStore(0)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			top := rtl.NewModule(fmt.Sprintf("top%d", g%4))
			in := top.Input("in", 8)
			out := top.Output("out", 8)
			w := top.Wire("w", 8)
			inst := top.Instantiate("u0", buildAdderLeaf(g%2 == 0))
			inst.ConnectInput("a", rtl.S(in))
			inst.ConnectOutput("q", w)
			top.Connect(out, rtl.S(w))
			c := NewCacheWith(store)
			if _, err := c.Module(top); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Entries == 0 || st.Hits == 0 {
		t.Errorf("concurrent compiles shared nothing: %+v", st)
	}
}

func TestMemStoreEviction(t *testing.T) {
	store := NewMemStore(2)
	var ds []Digest
	for i := 0; i < 3; i++ {
		m := rtl.NewModule("m")
		r := m.Reg("r", 8, "clk", uint64(i))
		m.SetNext(r, rtl.S(r))
		d := ModuleDigest(m)
		ds = append(ds, d)
		store.Save(d, &ModuleNetlist{})
	}
	st := store.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("entries/evictions = %d/%d, want 2/1", st.Entries, st.Evictions)
	}
	// The oldest (first) entry is the victim.
	if _, ok := store.Load(ds[0]); ok {
		t.Error("LRU victim still present")
	}
	if _, ok := store.Load(ds[2]); !ok {
		t.Error("newest entry evicted")
	}
}
