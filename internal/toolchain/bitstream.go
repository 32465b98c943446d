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

	"zoomie/internal/fpga"
	"zoomie/internal/synth"
)

// BitstreamDigest returns the canonical content hash of the compile's
// configured artifact. Modeled phase times, work counters, and flow names
// are deliberately excluded: a warm cache-served recompile and a cold
// from-scratch compile of the same design must digest identically.
func (r *Result) BitstreamDigest() string {
	h := sha256.New()
	var scratch [binary.MaxVarintLen64]byte
	num := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		h.Write(scratch[:n])
	}
	str := func(s string) {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}

	str(r.Options.Device.Name)
	dd := synth.DesignDigest(r.Design)
	h.Write(dd[:])

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

	byName := make([]int32, len(pl.Cells))
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(pl.Cells[a].Name, pl.Cells[b].Name) })
	for _, i := range byName {
		tp := pl.Tiles[i]
		str(pl.Cells[i].Name)
		num(uint64(tp.SLR))
		num(uint64(tp.Row))
		num(uint64(tp.Col))
		str(pl.Parts[i])
	}

	for _, rl := range sortedRegs(pl.StateMap.Regs) {
		str(rl.Name)
		num(uint64(rl.Width))
		num(uint64(rl.Addr.SLR))
		num(uint64(rl.Addr.Frame))
		num(uint64(rl.Addr.Bit))
	}
	for _, ml := range sortedMems(pl.StateMap.Mems) {
		str(ml.Name)
		num(uint64(ml.Width))
		num(uint64(ml.Depth))
		num(uint64(ml.SLR))
		num(uint64(ml.StartFrame))
	}

	return hex.EncodeToString(h.Sum(nil))
}

func sortedRegs(in []fpga.RegLoc) []fpga.RegLoc {
	out := append([]fpga.RegLoc(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sortedMems(in []fpga.MemLoc) []fpga.MemLoc {
	out := append([]fpga.MemLoc(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
