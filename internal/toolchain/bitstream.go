// Bitstream identity. The modeled toolchain never materializes literal
// configuration frames, so "byte-identical bitstreams" is checked through
// a canonical digest over everything that determines frame contents: the
// device, the design content, every cell's tile, every partition's
// reserved regions, and the state map's frame addresses. Two compiles
// with equal digests would program the device identically.
package toolchain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"

	"zoomie/internal/synth"
)

// BitstreamDigest returns the canonical content hash of the compile's
// configured artifact. Modeled phase times, work counters, and flow names
// are deliberately excluded: a warm cache-served recompile and a cold
// from-scratch compile of the same design must digest identically.
func (r *Result) BitstreamDigest() string {
	h := sha256.New()
	// The fields reach the hash through buf, in writes of about 64 KB.
	buf := make([]byte, 0, 64<<10)
	num := func(v uint64) {
		buf = binary.AppendUvarint(buf, v)
	}
	str := func(s string) {
		num(uint64(len(s)))
		buf = append(buf, s...)
		if len(buf) >= 63<<10 {
			h.Write(buf)
			buf = buf[:0]
		}
	}

	str(r.Options.Device.Name)
	dd := synth.DesignDigest(r.Design)
	buf = append(buf, dd[:]...)

	pl := r.Placement
	parts := make([]string, 0, len(pl.Regions))
	for name := range pl.Regions {
		parts = append(parts, name)
	}
	sort.Strings(parts)
	for _, name := range parts {
		str(name)
		for _, reg := range pl.Regions[name] {
			str(fmt.Sprintf("%s/%d/%d/%d/%d/%d", reg.Name, reg.SLR, reg.Row, reg.Col, reg.Rows, reg.Cols))
		}
	}

	for _, i := range byName(len(pl.Cells), func(i int) string { return pl.Cells[i].Name }) {
		tp := pl.Tiles[i]
		str(pl.Cells[i].Name)
		num(uint64(tp.SLR))
		num(uint64(tp.Row))
		num(uint64(tp.Col))
		str(pl.Parts[i])
	}

	regs, mems := pl.StateMap.Regs, pl.StateMap.Mems
	for _, i := range byName(len(regs), func(i int) string { return regs[i].Name }) {
		rl := &regs[i]
		str(rl.Name)
		num(uint64(rl.Width))
		num(uint64(rl.Addr.SLR))
		num(uint64(rl.Addr.Frame))
		num(uint64(rl.Addr.Bit))
	}
	for _, i := range byName(len(mems), func(i int) string { return mems[i].Name }) {
		ml := &mems[i]
		str(ml.Name)
		num(uint64(ml.Width))
		num(uint64(ml.Depth))
		num(uint64(ml.SLR))
		num(uint64(ml.StartFrame))
	}

	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// byName returns the indices 0..n-1 sorted by name(i). The names are
// copied out first, so the sort compares strings that sit together.
func byName(n int, name func(i int) string) []int32 {
	names := make([]string, n)
	idx := make([]int32, n)
	for i := range idx {
		names[i] = name(i)
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	return idx
}
