package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"groupsafe/internal/workload"
)

// TestOutOfRangeItemIsNotFound: no replica installs a write outside the
// database, so the delegate must refuse it before the broadcast — a
// broadcast one would leave its waiter unanswered until the deadline — and
// before a local commit, where an abort would send a retrying client round
// for ever.  That holds at every level, for a write the request names, for
// one a Compute hook emits, and for a query's read.
func TestOutOfRangeItemIsNotFound(t *testing.T) {
	emit := func(map[int]int64) []workload.Op { return []workload.Op{{Item: 64, Write: true, Value: 1}} }
	for _, level := range []SafetyLevel{GroupSafe, Safety0, Safety1Lazy} {
		c, err := NewCluster(ClusterConfig{Replicas: 3, Items: 64, Level: level, ExecTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		for name, req := range map[string]Request{
			"write past the end": {Ops: []workload.Op{{Item: 64, Write: true, Value: 1}}},
			"negative write":     {Ops: []workload.Op{{Item: 0}, {Item: -1, Write: true, Value: 1}}},
			"emitted by Compute": {Ops: []workload.Op{{Item: 0}}, Compute: emit},
			"query past the end": {Ops: []workload.Op{{Item: 0}, {Item: 64}}, ReadOnly: true},
		} {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			start := time.Now()
			res, err := c.Execute(ctx, 0, req)
			cancel()
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("%v, %s: %+v, err=%v after %v, want ErrNotFound", level, name, res, err, time.Since(start))
			}
		}
		if res, err := c.Execute(context.Background(), 0, writeReq(0, 63, 7)); err != nil || !res.Committed() {
			t.Errorf("%v: in-range write after the rejections: %+v, %v", level, res, err)
		}
		c.Close()
	}
}

// TestUnknownSafetyLevelRejected: a per-transaction level outside
// AllLevels names no response point, so it is refused, never served at
// some other level.
func TestUnknownSafetyLevelRejected(t *testing.T) {
	for _, base := range []SafetyLevel{GroupSafe, Safety2} {
		c := newTestCluster(t, base, 3)
		for _, lvl := range []SafetyLevel{9, -3} {
			for name, req := range map[string]Request{"update": writeReq(0, 1, 1), "query": {ReadOnly: true, Ops: []workload.Op{{Item: 1}}}} {
				req.Safety = &lvl
				if res, err := c.Execute(context.Background(), 0, req); !errors.Is(err, ErrSafetyUnavailable) {
					t.Errorf("%v cluster, %s at level %d: %+v, %v; want ErrSafetyUnavailable", base, name, int(lvl), res, err)
				}
			}
		}
	}
}

// TestUpdateReleasesSnapBeforeBroadcast: an update's read phase ends before
// its broadcast, so the delegate holds no MVCC snapshot while the update
// waits for its delivery; one held there would keep every version installed
// meanwhile from being pruned.
func TestUpdateReleasesSnapBeforeBroadcast(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	delegate := c.Replica(0)
	live := make(chan int, 1)
	delegate.SetDeliverHook(func(uint64) {
		select {
		case live <- delegate.DB().Store().LiveSnaps():
		default:
		}
	})
	defer delegate.SetDeliverHook(nil)
	req := Request{Ops: []workload.Op{{Item: 1}, {Item: 2, Write: true, Value: 5}}}
	if res, err := c.Execute(context.Background(), 0, req); err != nil || !res.Committed() {
		t.Fatalf("update: %+v, %v", res, err)
	}
	if n := <-live; n != 0 {
		t.Fatalf("the delegate held %d live snapshots while its update was delivered, want 0", n)
	}
}
