//go:build !race

package core

import "testing"

// TestDecodeTxnRecordAllocs: decoding into a warm arena costs one
// allocation, the delegate string.
func TestDecodeTxnRecordAllocs(t *testing.T) {
	var rec txnRecord
	for _, tc := range goldenPayloads() {
		payload := tc.encode()
		if err := decodeTxnRecord(payload, &rec); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = decodeTxnRecord(payload, &rec) }); allocs != 1 {
			t.Errorf("%s decode: %v allocations, want 1", tc.name, allocs)
		}
	}
}
