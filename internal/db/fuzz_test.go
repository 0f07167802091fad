package db

import (
	"bytes"
	"testing"
)

// FuzzDecodePrepareData checks the prepare record's decoder against the
// codec's rules: it never panics, an input that decodes re-encodes to
// itself, and every strict prefix of such an input fails.
func FuzzDecodePrepareData(f *testing.F) {
	f.Add(encodePrepareData(2, []int{5, 128, 65535}))
	f.Add(encodePrepareData(0, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		coord, items, err := decodePrepareData(data)
		if err != nil {
			return
		}
		if got := encodePrepareData(coord, items); !bytes.Equal(got, data) {
			t.Fatalf("%x decodes to %d, %v, which encodes to %x", data, coord, items, got)
		}
		for cut := range data {
			if _, _, err := decodePrepareData(data[:cut]); err == nil {
				t.Fatalf("%x truncated to %d bytes decodes", data, cut)
			}
		}
	})
}
