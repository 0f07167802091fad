package varint

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	buf := binary.AppendUvarint(nil, math.MaxUint64)
	buf = binary.AppendVarint(buf, math.MinInt64)
	buf = binary.AppendVarint(buf, -1)
	buf = append(buf, 0xfe, 1)
	buf = AppendString(buf, "id")
	buf = AppendBytes(buf, []byte{})
	buf = append(buf, "rest"...)
	r := NewReader(buf)
	u, v, w, b, ok, s, p := r.Uvarint(), r.Varint(), r.Varint(), r.Byte(), r.Bool(), r.String(), r.Bytes()
	if u != math.MaxUint64 || v != math.MinInt64 || w != -1 || b != 0xfe || !ok || s != "id" || p == nil || len(p) != 0 {
		t.Fatalf("read %d %d %d %#x %v %q %v", u, v, w, b, ok, s, p)
	}
	if rest := r.Rest(); string(rest) != "rest" || r.Err() != nil {
		t.Fatalf("rest %q, err %v", rest, r.Err())
	}
}

// TestReaderRejects covers each rule: a truncated, overflowing or
// non-minimal varint, a count beyond the input, a flag byte that is not
// 0 or 1, and input left over.  The first malformed field latches.
func TestReaderRejects(t *testing.T) {
	for name, c := range map[string]struct {
		data []byte
		read func(*Reader)
	}{
		"empty":       {nil, func(r *Reader) { r.Uvarint() }},
		"truncated":   {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"overflow":    {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint() }},
		"non-minimal": {[]byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }},
		"zigzag":      {[]byte{0x80, 0x00}, func(r *Reader) { r.Varint() }},
		"count":       {[]byte{3, 'a', 'b'}, func(r *Reader) { r.Count() }},
		"string":      {[]byte{3, 'a', 'b'}, func(r *Reader) { _ = r.String() }},
		"bool":        {[]byte{2}, func(r *Reader) { r.Bool() }},
		"byte":        {nil, func(r *Reader) { r.Byte() }},
	} {
		r := NewReader(c.data)
		c.read(&r)
		if err := r.Err(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: Err() = %v, want ErrMalformed", name, err)
		}
		if v := r.Uvarint(); v != 0 || r.Count() != 0 || r.Rest() != nil {
			t.Errorf("%s: reads after the failure return %d, want zero", name, v)
		}
	}
	r := NewReader([]byte{1, 2})
	if r.Uvarint(); !errors.Is(r.Err(), ErrMalformed) {
		t.Errorf("a byte left over: Err() = %v, want ErrMalformed", r.Err())
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		if got, want := UvarintLen(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
}
