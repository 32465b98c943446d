// Package codec is the one binary data codec: every byte that leaves a
// process after the JSON hello — wire v3 frames, history blobs and
// session state exports — is written by its Append functions and read
// back by its Decoder.
//
// Unsigned integers are uvarints and signed integers zigzag varints
// (encoding/binary's Varint); strings and byte slices are a uvarint
// length and the bytes; lists are a uvarint count and their elements;
// name-keyed maps are a count and their (name, value) pairs in sorted
// name order, so equal maps encode to equal bytes.
//
// The Append functions take and return the buffer by value, so a caller
// appending into a reused buffer allocates nothing. The Decoder keeps
// the first error it meets and from then on reads zeros, so a reader
// can decode a whole structure and check Err once. Every count is
// bounded by the bytes left before anything is allocated for it: a
// hostile input cannot make the decoder allocate more than a small
// multiple of its own length.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// AppendUvarint appends v as a uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s, length-prefixed.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends p, length-prefixed.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendStrings appends a counted list of strings.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendWords appends a counted list of uvarints.
func AppendWords(b []byte, ws []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(ws)))
	for _, w := range ws {
		b = binary.AppendUvarint(b, w)
	}
	return b
}

// AppendRows appends a counted list of word lists.
func AppendRows(b []byte, rows [][]uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, r := range rows {
		b = AppendWords(b, r)
	}
	return b
}

// AppendMap appends a name-keyed map as a count and its (name, value)
// pairs in sorted name order, each value written by put.
func AppendMap[V any](b []byte, m map[string]V, put func([]byte, V) []byte) []byte {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, n := range names {
		b = put(AppendString(b, n), m[n])
	}
	return b
}

// ErrTruncated reports input that ends inside a value, or a count or
// length larger than the bytes left could hold.
var ErrTruncated = errors.New("truncated input")

// maxIntern bounds a decoder's intern table, so a peer cycling through
// unique names cannot grow it without bound.
const maxIntern = 4096

// Decoder reads values from a byte slice. Its zero value reads an empty
// slice; Reset points it at another.
type Decoder struct {
	b      []byte
	off    int
	err    error
	intern map[string]string
}

// NewDecoder returns a decoder over b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Reset points d at b and clears its error; the intern table stays.
func (d *Decoder) Reset(b []byte) { d.b, d.off, d.err = b, 0, nil }

// Intern makes String return one shared copy of each string it has
// already returned, so decoding a familiar name allocates nothing.
func (d *Decoder) Intern() { d.intern = make(map[string]string) }

// Err returns the first error the decoder met, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of bytes not yet read.
func (d *Decoder) Len() int { return len(d.b) - d.off }

// Fail records an error unless one is already recorded; every later read
// returns zero.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *Decoder) truncated() {
	if d.err == nil {
		d.err = fmt.Errorf("%w at byte %d", ErrTruncated, d.off)
	}
}

// Uvarint reads a uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.truncated()
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.truncated()
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag varint that must fit an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.truncated()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads a byte AppendBool wrote.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Count reads a list count and bounds it by the bytes left, each element
// taking at least min bytes.
func (d *Decoder) Count(min int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Len()/min) {
		d.truncated()
		return 0
	}
	return int(n)
}

// view reads a length-prefixed byte string without copying it.
func (d *Decoder) view() []byte {
	n := d.Count(1)
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// Bytes reads a length-prefixed byte slice into fresh memory; an empty
// one reads as nil.
func (d *Decoder) Bytes() []byte {
	if p := d.view(); len(p) > 0 {
		return append([]byte(nil), p...)
	}
	return nil
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	p := d.view()
	if len(p) == 0 {
		return ""
	}
	if d.intern == nil {
		return string(p)
	}
	if s, ok := d.intern[string(p)]; ok {
		return s
	}
	s := string(p)
	if len(d.intern) < maxIntern {
		d.intern[s] = s
	}
	return s
}

// Strings reads a counted list of strings; an empty list reads as nil.
func (d *Decoder) Strings() []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out
}

// Words reads a counted list of uvarints into reuse when it is large
// enough, or into fresh memory; an empty list reads as nil.
func (d *Decoder) Words(reuse []uint64) []uint64 {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := reuse[:0]
	if cap(out) < n {
		out = make([]uint64, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = d.Uvarint()
	}
	return out
}

// Rows reads a counted list of word lists; an empty list reads as nil.
func (d *Decoder) Rows() [][]uint64 {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([][]uint64, n)
	for i := range out {
		out[i] = d.Words(nil)
	}
	return out
}

// ReadMap reads a map AppendMap wrote, each value read by get.
func ReadMap[V any](d *Decoder, get func() V) map[string]V {
	n := d.Count(2)
	m := make(map[string]V, n)
	for i := 0; i < n; i++ {
		k := d.String()
		m[k] = get()
	}
	return m
}
