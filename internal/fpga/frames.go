package fpga

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
)

// FrameCRC computes the CRC32 (Castagnoli) checksum of one frame's words,
// the integrity check the resilient JTAG transport uses for
// verify-after-write: the expected CRC of the data handed to the cable is
// compared against the CRC of the frame read back, so any in-flight
// corruption — bit flips, dropped writes, duplicated writes whose
// retransmission corrupted — is detected before the debugger trusts the
// state. Plays the role of the CRC register real configuration logic
// checks per frame.
func FrameCRC(data []uint32) uint32 {
	var buf [4]byte
	var sum uint32
	for _, w := range data {
		binary.LittleEndian.PutUint32(buf[:], w)
		sum = crc32.Update(sum, crcTable, buf[:])
	}
	return sum
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// BitAddr locates a run of state bits in the configuration plane.
type BitAddr struct {
	SLR   int
	Frame int // frame address within the SLR
	Bit   int // starting bit offset within the frame [0, FrameBits)
}

// RegLoc places one RTL register: Width bits starting at Addr. A register
// never spans frames (the allocator guarantees it), matching how flip-flop
// state of one slice lives in one frame on hardware.
type RegLoc struct {
	Name  string
	Width int
	Addr  BitAddr
}

// MemLoc places one RTL memory: words are packed Width bits at a time,
// FrameBits/Width words per frame, starting at frame StartFrame and
// continuing through consecutive frames.
type MemLoc struct {
	Name       string
	Width      int
	Depth      int
	SLR        int
	StartFrame int
}

// WordsPerFrame returns how many memory words fit in one frame.
func (m MemLoc) WordsPerFrame() int { return FrameBits / m.Width }

// FrameCount returns the number of frames the memory occupies.
func (m MemLoc) FrameCount() int {
	wpf := m.WordsPerFrame()
	return (m.Depth + wpf - 1) / wpf
}

// FrameWords returns the words [w0, w1) of the memory that frame
// stores, word w at bit (w-w0)*Width.
func (m MemLoc) FrameWords(frame int) (w0, w1 int) {
	wpf := m.WordsPerFrame()
	w0 = (frame - m.StartFrame) * wpf
	return w0, min(w0+wpf, m.Depth)
}

// WordAddr returns the frame and bit offset of word i.
func (m MemLoc) WordAddr(i int) BitAddr {
	wpf := m.WordsPerFrame()
	return BitAddr{
		SLR:   m.SLR,
		Frame: m.StartFrame + i/wpf,
		Bit:   (i % wpf) * m.Width,
	}
}

// StateMap is the logic-location metadata the toolchain emits alongside a
// bitstream: where every register and memory of the elaborated design
// lives in the configuration plane. It is what lets Zoomie's host software
// "parse the binary data and match it up with names of registers and
// memories in the RTL description" (§3.2). The metadata is fixed per
// image, so its one per-frame index lists each frame's state by position
// in Regs and Mems: frame I/O and restores walk it and look nothing up
// by name.
type StateMap struct {
	Regs []RegLoc
	Mems []MemLoc

	frames map[[2]int][]FrameItem // {SLR, frame} -> the state placed there

	// The name indexes. AddReg and AddMem keep them; a map built whole by
	// StateMapOf builds them on its first lookup by name.
	named     sync.Once
	regByName map[string]int
	memByName map[string]int
}

// FrameItem is one piece of state a configuration frame holds: the
// register Regs[Index], or, with Mem set, the words of the memory
// Mems[Index] that the frame stores (MemLoc.FrameWords). Every placed
// register has one, so it is kept small.
type FrameItem struct {
	Index int32
	Mem   bool
}

// NewStateMap builds an empty state map with room for regs registers
// and mems memories.
func NewStateMap(regs, mems int) *StateMap {
	return &StateMap{
		Regs:      make([]RegLoc, 0, regs),
		Mems:      make([]MemLoc, 0, mems),
		regByName: make(map[string]int, regs),
		memByName: make(map[string]int, mems),
		frames:    make(map[[2]int][]FrameItem),
	}
}

// StateMapOf builds the state map placing regs and then mems in one
// pass, with the frame index AddReg for each register and then AddMem for
// each memory would build. It looks no name up: the registers, and the
// memories, must have distinct names. The map keeps both slices.
func StateMapOf(regs []RegLoc, mems []MemLoc) (*StateMap, error) {
	sm := &StateMap{Regs: regs, Mems: mems, frames: make(map[[2]int][]FrameItem)}
	// Registers fill frames in runs, so each run costs one frame lookup.
	var key [2]int
	var items []FrameItem
	open := false
	for i := range regs {
		loc := &regs[i]
		if loc.Addr.Bit+loc.Width > FrameBits {
			return nil, fmt.Errorf("fpga: register %q spans a frame boundary", loc.Name)
		}
		if k := [2]int{loc.Addr.SLR, loc.Addr.Frame}; !open || k != key {
			if open {
				sm.frames[key] = items
			}
			key, items, open = k, sm.frames[k], true
		}
		items = append(items, FrameItem{Index: int32(i)})
	}
	if open {
		sm.frames[key] = items
	}
	for i := range mems {
		if err := sm.indexMem(i); err != nil {
			return nil, err
		}
	}
	return sm, nil
}

// names returns the name indexes, built from Regs and Mems on first use
// by a map that StateMapOf built.
func (sm *StateMap) names() (regs, mems map[string]int) {
	sm.named.Do(func() {
		if sm.regByName != nil {
			return
		}
		sm.regByName = make(map[string]int, len(sm.Regs))
		for i := range sm.Regs {
			sm.regByName[sm.Regs[i].Name] = i
		}
		sm.memByName = make(map[string]int, len(sm.Mems))
		for i := range sm.Mems {
			sm.memByName[sm.Mems[i].Name] = i
		}
	})
	return sm.regByName, sm.memByName
}

// AddReg records a register placement. A frame lists its registers, in
// the order they were added, before its memories.
func (sm *StateMap) AddReg(loc RegLoc) error {
	sm.names()
	if _, dup := sm.regByName[loc.Name]; dup {
		return fmt.Errorf("fpga: duplicate register placement %q", loc.Name)
	}
	if loc.Addr.Bit+loc.Width > FrameBits {
		return fmt.Errorf("fpga: register %q spans a frame boundary", loc.Name)
	}
	sm.regByName[loc.Name] = len(sm.Regs)
	key := [2]int{loc.Addr.SLR, loc.Addr.Frame}
	items := sm.frames[key]
	at := len(items)
	for at > 0 && items[at-1].Mem {
		at--
	}
	sm.frames[key] = slices.Insert(items, at, FrameItem{Index: int32(len(sm.Regs))})
	sm.Regs = append(sm.Regs, loc)
	return nil
}

// AddMem records a memory placement.
func (sm *StateMap) AddMem(loc MemLoc) error {
	sm.names()
	if _, dup := sm.memByName[loc.Name]; dup {
		return fmt.Errorf("fpga: duplicate memory placement %q", loc.Name)
	}
	sm.Mems = append(sm.Mems, loc)
	if err := sm.indexMem(len(sm.Mems) - 1); err != nil {
		sm.Mems = sm.Mems[:len(sm.Mems)-1]
		return err
	}
	sm.memByName[loc.Name] = len(sm.Mems) - 1
	return nil
}

// indexMem lists Mems[i] in the frames holding its words.
func (sm *StateMap) indexMem(i int) error {
	loc := &sm.Mems[i]
	if loc.Width <= 0 || loc.Width > FrameBits {
		return fmt.Errorf("fpga: memory %q has unplaceable width %d", loc.Name, loc.Width)
	}
	for f := 0; f < loc.FrameCount(); f++ {
		key := [2]int{loc.SLR, loc.StartFrame + f}
		sm.frames[key] = append(sm.frames[key], FrameItem{Index: int32(i), Mem: true})
	}
	return nil
}

// FrameItems lists the state one frame holds: its registers, then the
// memories with words in it.
func (sm *StateMap) FrameItems(slr, frame int) []FrameItem {
	return sm.frames[[2]int{slr, frame}]
}

// RegIndex returns the position of a register in Regs.
func (sm *StateMap) RegIndex(name string) (int, bool) {
	regs, _ := sm.names()
	i, ok := regs[name]
	return i, ok
}

// MemIndex returns the position of a memory in Mems.
func (sm *StateMap) MemIndex(name string) (int, bool) {
	_, mems := sm.names()
	i, ok := mems[name]
	return i, ok
}

// FramesHolding returns, per SLR, the sorted frames holding the registers
// Regs[i] for every i in regs and, for every j, the words of Mems[j]
// listed in words[j]. Every index must be in range.
func (sm *StateMap) FramesHolding(regs []int, words [][]int) map[int][]int {
	var keys [][2]int
	add := func(k [2]int) {
		if n := len(keys); n == 0 || keys[n-1] != k {
			keys = append(keys, k)
		}
	}
	for _, i := range regs {
		add([2]int{sm.Regs[i].Addr.SLR, sm.Regs[i].Addr.Frame})
	}
	for j, ws := range words {
		if len(ws) == 0 {
			continue
		}
		m := &sm.Mems[j]
		wpf := m.WordsPerFrame()
		for _, w := range ws {
			add([2]int{m.SLR, m.StartFrame + w/wpf})
		}
	}
	return perSLR(keys)
}

// perSLR groups {SLR, frame} keys into sorted, deduplicated per-SLR
// frame lists.
func perSLR(keys [][2]int) map[int][]int {
	slices.SortFunc(keys, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	out := make(map[int][]int)
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out[k[0]] = append(out[k[0]], k[1])
		}
	}
	return out
}

// Reg looks up a register placement by flat name.
func (sm *StateMap) Reg(name string) (RegLoc, bool) {
	i, ok := sm.RegIndex(name)
	if !ok {
		return RegLoc{}, false
	}
	return sm.Regs[i], true
}

// Mem looks up a memory placement by flat name.
func (sm *StateMap) Mem(name string) (MemLoc, bool) {
	i, ok := sm.MemIndex(name)
	if !ok {
		return MemLoc{}, false
	}
	return sm.Mems[i], true
}

// FramesTouched returns, per SLR, the sorted list of frame addresses that
// hold any state of the named signals/memories. Passing nil names selects
// everything. This drives the SLR-aware readback optimization: scan only
// the frames that matter.
func (sm *StateMap) FramesTouched(names map[string]bool) map[int][]int {
	var keys [][2]int
	for _, r := range sm.Regs {
		if names == nil || names[r.Name] {
			keys = append(keys, [2]int{r.Addr.SLR, r.Addr.Frame})
		}
	}
	for _, m := range sm.Mems {
		if names == nil || names[m.Name] {
			for f := 0; f < m.FrameCount(); f++ {
				keys = append(keys, [2]int{m.SLR, m.StartFrame + f})
			}
		}
	}
	return perSLR(keys)
}

// FrameAllocator hands out frame space inside a region sequentially. The
// placer uses one allocator per region (and one for the static area of
// each SLR).
type FrameAllocator struct {
	slr     int
	next    int // next frame address
	last    int // last frame address (inclusive)
	bitsUse int // bits used in the current frame
}

// NewFrameAllocator allocates within [lo, hi) of the given SLR.
func NewFrameAllocator(slr, lo, hi int) *FrameAllocator {
	return &FrameAllocator{slr: slr, next: lo, last: hi - 1}
}

// AllocBits reserves width contiguous bits that do not cross a frame
// boundary, returning their address.
func (a *FrameAllocator) AllocBits(width int) (BitAddr, error) {
	if width > FrameBits {
		return BitAddr{}, fmt.Errorf("fpga: allocation of %d bits exceeds frame size", width)
	}
	if a.bitsUse+width > FrameBits {
		a.CloseFrame()
	}
	if a.next > a.last {
		return BitAddr{}, fmt.Errorf("fpga: SLR %d region frames exhausted", a.slr)
	}
	addr := BitAddr{SLR: a.slr, Frame: a.next, Bit: a.bitsUse}
	a.bitsUse += width
	return addr, nil
}

// CloseFrame ends the frame in progress, if any: the next allocation
// starts a fresh frame.
func (a *FrameAllocator) CloseFrame() {
	if a.bitsUse > 0 {
		a.next++
		a.bitsUse = 0
	}
}

// AllocFrames reserves n whole frames, returning the first address.
func (a *FrameAllocator) AllocFrames(n int) (int, error) {
	a.CloseFrame()
	if a.next+n-1 > a.last {
		return 0, fmt.Errorf("fpga: SLR %d region frames exhausted", a.slr)
	}
	start := a.next
	a.next += n
	return start, nil
}
