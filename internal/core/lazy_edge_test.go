package core

import (
	"context"
	"errors"
	"slices"
	"sync"
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

// lazySessions runs sessions concurrent clients, each executing txns
// requests built by next at replica 0, and returns how many committed.
func lazySessions(t *testing.T, c *Cluster, sessions, txns int, next func(s, i int) Request) int {
	t.Helper()
	var mu sync.Mutex
	var wg sync.WaitGroup
	committed := 0
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				res, err := c.Execute(context.Background(), 0, next(s, i))
				if err != nil {
					t.Error(err)
					return
				}
				if res.Committed() {
					mu.Lock()
					committed++
					mu.Unlock()
				}
			}
		}(s)
	}
	wg.Wait()
	return committed
}

// waitSameStore polls until every replica's store equals replica 0's.
func waitSameStore(t *testing.T, c *Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i := 1; i < c.Size(); i++ {
		for !slices.Equal(c.Replica(i).StoreItems(), c.Replica(0).StoreItems()) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never matched the delegate's store:\n%v\n%v", i, c.Replica(i).StoreItems()[:4], c.Replica(0).StoreItems()[:4])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestLazyConflictingWritesShipInCommitOrder: write sets that conflict at
// one delegate are shipped in the order they committed there, so after
// propagation every replica holds exactly the delegate's values and
// versions (last writer wins at the secondaries, and the last writer is the
// same one everywhere).
func TestLazyConflictingWritesShipInCommitOrder(t *testing.T) {
	c := newTestCluster(t, Safety1Lazy, 3)
	committed := lazySessions(t, c, 8, 25, func(s, i int) Request {
		return Request{Ops: []workload.Op{
			{Item: i % 3, Write: true, Value: int64(s*1000 + i)},
			{Item: (i + s) % 3, Write: true, Value: int64(s*1000 + i)},
		}}
	})
	if committed != 8*25 {
		t.Fatalf("%d of %d blind writes committed, want all", committed, 8*25)
	}
	waitSameStore(t, c)
}

// TestLazyIncrementsLoseNoUpdate: concurrent read-modify-write increments at
// one lazy delegate either commit on the value they read or abort — none
// overwrites an increment it did not see — so the final sum equals the
// number of committed increments, at the delegate and, after propagation,
// everywhere.
func TestLazyIncrementsLoseNoUpdate(t *testing.T) {
	for _, level := range []SafetyLevel{Safety0, Safety1Lazy} {
		c := newTestCluster(t, level, 3)
		committed := lazySessions(t, c, 8, 25, func(s, i int) Request {
			item := (s + i) % 4
			return Request{Ops: []workload.Op{{Item: item}}, Compute: func(vals map[int]int64) []workload.Op {
				return []workload.Op{{Item: item, Write: true, Value: vals[item] + 1}}
			}}
		})
		var sum int64
		for item := 0; item < 4; item++ {
			v, _ := c.Value(0, item)
			sum += v
		}
		if committed == 0 || sum != int64(committed) {
			t.Fatalf("%v: sum of the counters = %d, committed increments = %d", level, sum, committed)
		}
		waitSameStore(t, c)
	}
}
