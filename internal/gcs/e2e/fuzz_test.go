package e2e

import (
	"bytes"
	"testing"
)

// FuzzDecodeMessage checks the message record's decoder against the codec's
// rules: it never panics, an input that decodes re-encodes to itself, and
// every prefix that cuts the message id fails.  The payload runs to the end
// of the record (the log frames the record), so a prefix that cuts only the
// payload decodes to a shorter one.
func FuzzDecodeMessage(f *testing.F) {
	f.Add(appendMessage(nil, "s1/3/42", []byte{0xa7, 0}))
	f.Add(appendMessage(nil, "", nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, payload, err := decodeMessage(data)
		if err != nil {
			return
		}
		if got := appendMessage(nil, id, payload); !bytes.Equal(got, data) {
			t.Fatalf("%x decodes to %q, %x, which encodes to %x", data, id, payload, got)
		}
		for cut := range data[:len(data)-len(payload)] {
			if _, _, err := decodeMessage(data[:cut]); err == nil {
				t.Fatalf("%x truncated to %d bytes decodes", data, cut)
			}
		}
	})
}
