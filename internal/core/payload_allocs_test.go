//go:build !race

// The race detector makes sync.Pool drop items at random, so the encoders'
// pooled scratch allocates again under -race.

package core

import "testing"

// TestPayloadEncodeAllocs: each encode costs exactly one allocation, the
// wire slice.
func TestPayloadEncodeAllocs(t *testing.T) {
	for _, tc := range goldenPayloads() {
		if allocs := testing.AllocsPerRun(100, func() { tc.encode() }); allocs != 1 {
			t.Errorf("%s encode: %v allocations, want 1", tc.name, allocs)
		}
	}
}
