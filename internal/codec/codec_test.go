package codec

import (
	"errors"
	"reflect"
	"testing"
)

// TestCodecRoundTrip writes one value of every kind and reads it back.
func TestCodecRoundTrip(t *testing.T) {
	regs := map[string]uint64{"b": 2, "a": 1, "c": 1 << 63}
	b := AppendUvarint(nil, 300)
	b = AppendVarint(b, -5)
	b = AppendBool(b, true)
	b = AppendString(b, "dut.q")
	b = AppendBytes(b, []byte{0, 1, 2})
	b = AppendStrings(b, []string{"x", "", "dut.q"})
	b = AppendWords(b, []uint64{7, 0, 1 << 40})
	b = AppendRows(b, [][]uint64{{1}, nil, {2, 3}})
	b = AppendMap(b, regs, AppendUvarint)
	if again := AppendMap(nil, regs, AppendUvarint); !reflect.DeepEqual(again, AppendMap(nil, regs, AppendUvarint)) {
		t.Fatal("AppendMap is not deterministic")
	}

	d := NewDecoder(b)
	d.Intern()
	got := []any{d.Uvarint(), d.Varint(), d.Bool(), d.String(), d.Bytes(), d.Strings(), d.Words(nil), d.Rows(),
		ReadMap(d, d.Uvarint)}
	want := []any{uint64(300), int64(-5), true, "dut.q", []byte{0, 1, 2}, []string{"x", "", "dut.q"},
		[]uint64{7, 0, 1 << 40}, [][]uint64{{1}, nil, {2, 3}}, regs}
	if d.Err() != nil || d.Len() != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %v (err %v, %d bytes left), want %v", got, d.Err(), d.Len(), want)
	}
}

// TestCodecDecoderBounds checks the decoder's guards: a count larger
// than the bytes left fails before allocating, the first error sticks
// and later reads return zero, and empty lists read as nil.
func TestCodecDecoderBounds(t *testing.T) {
	d := NewDecoder(AppendUvarint(nil, 1<<40))
	if got := d.Words(nil); got != nil || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("a count of 2^40 in 6 bytes read %d words, err %v", len(got), d.Err())
	}
	first := d.Err()
	d.Fail("later failure")
	if d.Err() != first || d.Uvarint() != 0 || d.String() != "" {
		t.Fatalf("error not sticky: %v", d.Err())
	}
	d.Reset(AppendWords(AppendStrings(nil, nil), nil))
	if d.Strings() != nil || d.Words([]uint64{9}) != nil || d.Err() != nil {
		t.Fatal("empty lists did not read as nil")
	}
	if d.Byte(); !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("reading past the end: %v", d.Err())
	}
}
