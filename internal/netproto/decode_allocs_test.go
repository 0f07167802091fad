//go:build !race

package netproto

import (
	"testing"

	"groupsafe/internal/core"
	"groupsafe/internal/workload"
)

// TestDecodeAllocs pins what decoding a request and a result costs: the
// request's safety override and op slice; the result's delegate and read
// value map.
func TestDecodeAllocs(t *testing.T) {
	lvl := core.GroupSafe
	req := AppendRequest(nil, core.Request{ID: 9, Safety: &lvl, Ops: []workload.Op{{Item: 4, Write: true, Value: 1}}})
	res := AppendResult(nil, core.Result{TxnID: 9, Outcome: core.OutcomeCommitted, Delegate: "s1", ReadValues: map[int]int64{1: 2, 3: 4}})
	for _, c := range []struct {
		name   string
		decode func() error
		want   float64
	}{
		{"DecodeRequest", func() error { _, err := DecodeRequest(req); return err }, 2},
		{"DecodeResult", func() error { _, err := DecodeResult(res); return err }, 3},
	} {
		if err := c.decode(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = c.decode() }); allocs != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, allocs, c.want)
		}
	}
}
