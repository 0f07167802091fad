package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"groupsafe/internal/workload"
)

// TestLazyFreshnessFloorRejected: the lazy levels have no totally-ordered,
// cross-replica-comparable sequence, so a freshness floor cannot be honoured
// — it must be rejected loudly with ErrSafetyUnavailable at every replica,
// rather than silently served stale.
func TestLazyFreshnessFloorRejected(t *testing.T) {
	ctx := context.Background()
	c, err := NewCluster(ClusterConfig{Replicas: 3, Items: 64, Level: Safety1Lazy, ExecTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < c.Size(); i++ {
		_, err := c.Execute(ctx, i, Request{
			Ops:          []workload.Op{{Item: 1}},
			ReadOnly:     true,
			MinFreshness: 1,
		})
		if !errors.Is(err, ErrSafetyUnavailable) {
			t.Errorf("replica %d: floored query at 1-safe-lazy: err=%v, want ErrSafetyUnavailable", i, err)
		}
	}
	// An update with a floor takes the local execution path and must be
	// rejected the same way.
	if _, err := c.Execute(ctx, 1, Request{Ops: []workload.Op{{Item: 1, Write: true, Value: 7}}, MinFreshness: 1}); !errors.Is(err, ErrSafetyUnavailable) {
		t.Errorf("floored update at 1-safe-lazy: err=%v, want ErrSafetyUnavailable", err)
	}
}
