// Package varint is the module's one binary codec.  Every peer message,
// client protocol message and log record payload is a sequence of unsigned
// varints, zigzag varints, single bytes and length-prefixed byte strings:
// written with encoding/binary's Append functions and the helpers here, read
// back through a Reader.  (The write-ahead log frames each record in fixed
// width under a checksum.)  Each package keeps its own layouts; only the
// primitives and the rules live here.
//
// A Reader enforces the rules in one place: a varint is complete and
// minimal, a length or count never exceeds the bytes left, and a value ends
// where its input does.  So a byte string decodes to at most one value, and
// a value that decodes re-encodes to the same bytes.
package varint

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// ErrMalformed is the error of a Reader whose input breaks a rule.
var ErrMalformed = errors.New("malformed binary encoding")

// Reader reads the fields of one encoded value in order.  The first
// malformed field latches the error and every later read returns zero, so a
// decoder checks Err once, after its last field.
type Reader struct {
	data []byte
	bad  bool
}

// NewReader returns a Reader over data.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Fail latches the error; a decoder calls it for a field that is well formed
// but invalid, such as an unknown magic byte.
func (r *Reader) Fail() { r.data, r.bad = nil, true }

// Uvarint reads an unsigned varint.  A truncated or overflowing one is
// malformed, and so is a non-minimal one (a zero last byte after
// continuation bytes), which binary.Uvarint would accept.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 || n > 1 && r.data[n-1] == 0 {
		r.Fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Varint reads a signed varint in binary.AppendVarint's zigzag format.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.data) == 0 {
		r.Fail()
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail()
	}
	return b == 1
}

// Count reads the length of a list or a byte string.  Every element takes at
// least one byte, so a count above the bytes left is malformed, and a decoder
// may size an allocation by what Count returns.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(len(r.data)) {
		r.Fail()
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string.  The result aliases the input,
// capped at its own length so that appending to it cannot overwrite the
// fields after it.
func (r *Reader) Bytes() []byte {
	n := r.Count()
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// String reads a length-prefixed string, copied out of the input.
func (r *Reader) String() string { return string(r.Bytes()) }

// Rest reads the trailing field of a layout that runs to the end of its
// input, aliasing the input.
func (r *Reader) Rest() []byte {
	b := r.data
	r.data = r.data[len(b):]
	return b
}

// Err returns ErrMalformed if a field was malformed or input is left over.
func (r *Reader) Err() error {
	if r.bad || len(r.data) > 0 {
		return ErrMalformed
	}
	return nil
}

// AppendString appends s in the format String reads.
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// AppendBytes appends b in the format Bytes reads.
func AppendBytes(buf, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// UvarintLen returns the encoded size of v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
