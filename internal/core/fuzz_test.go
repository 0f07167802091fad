package core

import (
	"bytes"
	"testing"
)

// fuzzCodec checks a decoder of peer input against the codec's rules: it
// never panics, an input that decodes re-encodes to itself, and every strict
// prefix of such an input fails.  The seeds are valid encodings.
func fuzzCodec[T any](f *testing.F, decode func([]byte, *T) error, encode func(T) []byte, seeds ...[]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v T
		if decode(data, &v) != nil {
			return
		}
		if got := encode(v); !bytes.Equal(got, data) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", data, v, got)
		}
		for cut := range data {
			var w T
			if decode(data[:cut], &w) == nil {
				t.Fatalf("%x truncated to %d bytes decodes to %+v", data, cut, w)
			}
		}
	})
}

// FuzzDecodeTxnRecord covers the broadcast transaction payload, the
// two-phase-commit payloads and the lazy levels' write sets: one decoder
// reads all three.
func FuzzDecodeTxnRecord(f *testing.F) {
	var seeds [][]byte
	for _, tc := range goldenPayloads() {
		seeds = append(seeds, tc.encode())
	}
	seeds = append(seeds, encodeTxnPayload(phaseNone, 9, "s3", Safety1Lazy, 0, nil, map[int]int64{2: -1, 70: 1 << 20}))
	fuzzCodec(f, decodeTxnRecord, func(rec txnRecord) []byte {
		reads, writes := make(map[int]uint64), make(map[int]int64)
		for _, rv := range rec.Reads {
			reads[rv.Item] = rv.Ver
		}
		for _, w := range rec.Writes {
			writes[w.Item] = w.Value
		}
		return encodeTxnPayload(rec.Phase, rec.TxnID, rec.Delegate, rec.Level, rec.Coord, reads, writes)
	}, seeds...)
}

func FuzzDecodeVerySafeAck(f *testing.F) {
	type ack struct {
		txnID   uint64
		replica string
	}
	fuzzCodec(f, func(data []byte, a *ack) (err error) {
		a.txnID, a.replica, err = decodeVerySafeAck(data)
		return err
	}, func(a ack) []byte { return encodeVerySafeAck(a.txnID, a.replica) },
		encodeVerySafeAck(1<<33, "127.0.0.1:7001"), encodeVerySafeAck(0, ""))
}
