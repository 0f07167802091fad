package server

import (
	"bytes"
	"testing"

	"groupsafe/internal/core"
	"groupsafe/internal/storage"
)

// FuzzDecodeSnapshot checks the state-transfer snapshot decoder against the
// codec's rules: it never panics, an input that decodes re-encodes to itself,
// and every strict prefix of such an input fails.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(appendSnapshot(nil, core.StateSnapshot{LastAppliedSeq: 41,
		Items: []storage.Item{{Value: -4, Version: 2}, {Value: 1 << 40, Version: 0}}, AppliedTxns: []uint64{7, 1 << 50}}))
	f.Add(appendSnapshot(nil, core.StateSnapshot{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		if got := appendSnapshot(nil, s); !bytes.Equal(got, data) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", data, s, got)
		}
		for cut := range data {
			if _, err := decodeSnapshot(data[:cut]); err == nil {
				t.Fatalf("%x truncated to %d bytes decodes", data, cut)
			}
		}
	})
}

// FuzzDecodePull checks the pull decoder the same way.
func FuzzDecodePull(f *testing.F) {
	f.Add(appendPull(nil, statePair{seq: 41, digest: 1<<64 - 1}))
	f.Add(appendPull(nil, statePair{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodePull(data)
		if err != nil {
			return
		}
		if got := appendPull(nil, p); !bytes.Equal(got, data) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", data, p, got)
		}
		for cut := range data {
			if _, err := decodePull(data[:cut]); err == nil {
				t.Fatalf("%x truncated to %d bytes decodes", data, cut)
			}
		}
	})
}
