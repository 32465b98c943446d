package fpga

// GetBits extracts the width-bit field (1 <= width <= 64) starting at bit
// off of a frame, least significant bit first. It works a 32-bit word at a
// time: a field touches at most three words, so the loop runs at most
// three times whatever the width.
func GetBits(frame []uint32, off, width int) uint64 {
	w, s := off>>5, uint(off&31)
	v := uint64(frame[w]) >> s
	for got := 32 - int(s); got < width; got += 32 {
		w++
		v |= uint64(frame[w]) << uint(got)
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	return v
}

// PutBits stores the low width bits of v (1 <= width <= 64) at bit off of
// a frame, leaving every other bit of the frame untouched. Like GetBits it
// masks whole 32-bit words.
func PutBits(frame []uint32, off, width int, v uint64) {
	w, s := off>>5, uint(off&31)
	for width > 0 {
		n := 32 - int(s)
		if n > width {
			n = width
		}
		mask := uint32((uint64(1)<<uint(n) - 1) << s)
		frame[w] = frame[w]&^mask | uint32(v<<s)&mask
		v >>= uint(n)
		width -= n
		w++
		s = 0
	}
}
