package partition

import (
	"context"
	"errors"
	"testing"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/workload"
)

func TestMapArithmetic(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 4, 7} {
		m := NewMap(100, parts)
		counted := 0
		for p := 0; p < parts; p++ {
			counted += m.Size(p)
		}
		if counted != 100 {
			t.Fatalf("parts=%d: sizes sum to %d, want 100", parts, counted)
		}
		for g := 0; g < 100; g++ {
			p, l := m.Owner(g), m.Local(g)
			if p < 0 || p >= parts {
				t.Fatalf("parts=%d: owner(%d) = %d", parts, g, p)
			}
			if l < 0 || l >= m.Size(p) {
				t.Fatalf("parts=%d: local(%d) = %d outside partition %d (size %d)", parts, g, l, p, m.Size(p))
			}
			if m.Global(p, l) != g {
				t.Fatalf("parts=%d: roundtrip %d -> (%d,%d) -> %d", parts, g, p, l, m.Global(p, l))
			}
		}
	}
}

func newTestCluster(t *testing.T, partitions int) *Cluster {
	t.Helper()
	c, err := New(core.ClusterConfig{
		Replicas:    3,
		Items:       64,
		Level:       core.GroupSafe,
		Partitions:  partitions,
		ExecTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func waitConsistent(t *testing.T, c *Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitConsistent(ctx); err != nil {
		t.Fatalf("replicas did not converge: %v", err)
	}
}

func write(item int, value int64) workload.Op {
	return workload.Op{Item: item, Write: true, Value: value}
}
func read(item int) workload.Op { return workload.Op{Item: item} }

// expectValues asserts the committed value of each (item, value) pair on every
// server.
func expectValues(t *testing.T, c *Cluster, want map[int]int64) {
	t.Helper()
	for i := 0; i < c.Size(); i++ {
		if c.ReplicaCrashed(i) {
			continue
		}
		for item, value := range want {
			got, err := c.Value(i, item)
			if err != nil {
				t.Fatalf("server %d item %d: %v", i, item, err)
			}
			if got != value {
				t.Fatalf("server %d item %d = %d, want %d", i, item, got, value)
			}
		}
	}
}

func TestUnpartitionedPassThrough(t *testing.T) {
	c := newTestCluster(t, 1)
	if c.NumPartitions() != 1 {
		t.Fatalf("NumPartitions = %d", c.NumPartitions())
	}
	res, err := c.Execute(context.Background(), 0, core.Request{Ops: []workload.Op{write(7, 77)}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed() || res.FreshnessVec != nil {
		t.Fatalf("pass-through result = %+v (freshness vector must stay nil on one partition)", res)
	}
	waitConsistent(t, c)
	expectValues(t, c, map[int]int64{7: 77})
}

func TestRejectsPartitioningWithoutGroupCommunication(t *testing.T) {
	if _, err := New(core.ClusterConfig{Replicas: 3, Items: 64, Level: core.Safety1Lazy, Partitions: 2}); err == nil {
		t.Fatal("expected an error for a lazy partitioned cluster")
	}
	if _, err := New(core.ClusterConfig{Replicas: 3, Items: 64, Level: core.Safety0, Partitions: 2}); err == nil {
		t.Fatal("expected an error for a 0-safe partitioned cluster")
	}
}

func TestSinglePartitionFastPath(t *testing.T) {
	c := newTestCluster(t, 4)
	// Items 1, 5, 9 all live on partition 1 (mod 4): the request is forwarded
	// whole, no 2PC.
	res, err := c.Execute(context.Background(), 0, core.Request{Ops: []workload.Op{write(1, 10), write(5, 50), read(9)}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
	if res.CommitPartition != 1 {
		t.Fatalf("CommitPartition = %d, want 1", res.CommitPartition)
	}
	if v, ok := res.ReadValues[9]; !ok || v != 0 {
		t.Fatalf("ReadValues = %v, want global item 9 = 0", res.ReadValues)
	}
	if len(res.FreshnessVec) != 4 || res.FreshnessVec[1] == 0 {
		t.Fatalf("FreshnessVec = %v, want entry 1 set", res.FreshnessVec)
	}
	waitConsistent(t, c)
	expectValues(t, c, map[int]int64{1: 10, 5: 50})
}

func TestCrossPartitionCommit(t *testing.T) {
	c := newTestCluster(t, 4)
	// Items 0..3 cover all four partitions.
	res, err := c.Execute(context.Background(), 1, core.Request{Ops: []workload.Op{
		write(0, 100), write(1, 101), write(2, 102), write(3, 103), read(4),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed() {
		t.Fatalf("result = %+v", res)
	}
	for p := 0; p < 4; p++ {
		if res.FreshnessVec[p] == 0 {
			t.Fatalf("FreshnessVec = %v, want every participant entry set", res.FreshnessVec)
		}
	}
	waitConsistent(t, c)
	expectValues(t, c, map[int]int64{0: 100, 1: 101, 2: 102, 3: 103})
}

func TestCrossPartitionCertificationAbort(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := context.Background()

	// T1 reads item 0 (partition 0) before writing item 1 (partition 1); a
	// conflicting update to item 0 commits between T1's read phase and its
	// prepare, so partition 0's certification must vote no and the whole
	// transaction — including the partition-1 write — must abort.
	read0 := make(chan struct{}) // T1 has read item 0
	gate := make(chan struct{})
	done := make(chan struct{})
	var res core.Result
	var err error
	go func() {
		defer close(done)
		res, err = c.Execute(ctx, 0, core.Request{
			Ops: []workload.Op{read(0)},
			Compute: func(reads map[int]int64) []workload.Op {
				close(read0)
				<-gate
				return []workload.Op{write(1, reads[0]+1)}
			},
		})
	}()

	<-read0
	if _, err := c.Execute(ctx, 1, core.Request{Ops: []workload.Op{write(0, 555)}}); err != nil {
		t.Fatal(err)
	}
	close(gate)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() {
		t.Fatalf("stale cross-partition read committed: %+v", res)
	}
	waitConsistent(t, c)
	// The aborted transaction must not have installed its partition-1 write.
	expectValues(t, c, map[int]int64{0: 555, 1: 0})
}

func TestFreshnessVectorReadYourWrites(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := context.Background()
	res, err := c.Execute(ctx, 0, core.Request{Ops: []workload.Op{write(0, 7), write(1, 8)}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed() {
		t.Fatalf("update = %+v", res)
	}
	// Read both items from a different server with the returned vector as the
	// floor: both partitions must serve at least the update's sequences.
	q, err := c.Execute(ctx, 2, core.Request{
		Ops:             []workload.Op{read(0), read(1)},
		MinFreshnessVec: res.FreshnessVec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if q.ReadValues[0] != 7 || q.ReadValues[1] != 8 {
		t.Fatalf("floored read = %v, want own writes {0:7 1:8}", q.ReadValues)
	}
	if len(q.FreshnessVec) != 2 {
		t.Fatalf("query FreshnessVec = %v", q.FreshnessVec)
	}
	for p := 0; p < 2; p++ {
		if q.FreshnessVec[p] < res.FreshnessVec[p] {
			t.Fatalf("query vector %v below floor %v", q.FreshnessVec, res.FreshnessVec)
		}
	}
}

// prepareDirect stages an in-doubt sub-transaction on partition p by
// submitting its prepare without ever deciding, simulating a router that died
// between the two phases.
func prepareDirect(t *testing.T, c *Cluster, p int, gid uint64, coord int, writes map[int]int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r := c.liveReplica(p, 0)
	outcome, _, err := r.SubmitPrepare(ctx, gid, c.Level(), coord, nil, writes)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != core.OutcomeCommitted {
		t.Fatalf("prepare vote = %v, want yes", outcome)
	}
}

func TestPreparedLocksBlockConflictingTransactions(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := context.Background()
	gid := c.newGID()

	// An in-doubt prepare holds an exclusive lock on partition 0's local item
	// 0 (global item 0).
	prepareDirect(t, c, 0, gid, 0, map[int]int64{0: 42})

	// A conflicting one-shot write must abort while the prepare is undecided.
	res, err := c.Execute(ctx, 0, core.Request{Ops: []workload.Op{write(0, 9)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() {
		t.Fatal("write conflicting with an in-doubt prepare committed")
	}

	// A write to an unrelated item is unaffected.
	res, err = c.Execute(ctx, 0, core.Request{Ops: []workload.Op{write(2, 11)}})
	if err != nil || !res.Committed() {
		t.Fatalf("disjoint write = %+v, err %v", res, err)
	}

	// Resolution (presumed abort: no decision exists) releases the lock.
	n, err := c.ResolveInDoubt(ctx)
	if err != nil || n != 1 {
		t.Fatalf("ResolveInDoubt = %d, %v; want 1 settled", n, err)
	}
	res, err = c.Execute(ctx, 0, core.Request{Ops: []workload.Op{write(0, 9)}})
	if err != nil || !res.Committed() {
		t.Fatalf("post-resolution write = %+v, err %v", res, err)
	}
	waitConsistent(t, c)
	expectValues(t, c, map[int]int64{0: 9, 2: 11})
}

func TestResolveInDoubtHonoursRecordedCommit(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := context.Background()
	gid := c.newGID()

	// Both participants prepared; the coordinator (partition 0) already
	// recorded COMMIT, but the decide never reached partition 1 — the router
	// died mid-propagation.
	prepareDirect(t, c, 0, gid, 0, map[int]int64{0: 21}) // global item 0
	prepareDirect(t, c, 1, gid, 0, map[int]int64{0: 22}) // global item 1
	r := c.liveReplica(0, 0)
	outcome, _, _, err := r.SubmitDecide(ctx, gid, c.Level(), true, map[int]int64{0: 21})
	if err != nil || outcome != core.OutcomeCommitted {
		t.Fatalf("coordinator decide = %v, %v", outcome, err)
	}

	// The resolver must learn the commit from the coordinator and finish the
	// partition-1 half — never presume abort over a recorded decision.
	if _, err := c.ResolveInDoubt(ctx); err != nil {
		t.Fatal(err)
	}
	waitConsistent(t, c)
	expectValues(t, c, map[int]int64{0: 21, 1: 22})
}

func TestInDoubtSurvivesCrashRecovery(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := context.Background()
	gid := c.newGID()
	prepareDirect(t, c, 1, gid, 0, map[int]int64{0: 33}) // global item 1 in-doubt

	// Crash and recover a server: state transfer must carry the in-doubt
	// prepare (certification locks included) to the recovered replica.
	c.Crash(2)
	if _, err := c.Recover(2); err != nil {
		t.Fatal(err)
	}

	// The lock still blocks conflicting writes cluster-wide.
	res, err := c.Execute(ctx, 2, core.Request{Ops: []workload.Op{write(1, 5)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed() {
		t.Fatal("write conflicting with a recovered in-doubt prepare committed")
	}

	// Presumed abort settles it; afterwards the write goes through.
	if n, err := c.ResolveInDoubt(ctx); err != nil || n != 1 {
		t.Fatalf("ResolveInDoubt = %d, %v", n, err)
	}
	res, err = c.Execute(ctx, 2, core.Request{Ops: []workload.Op{write(1, 5)}})
	if err != nil || !res.Committed() {
		t.Fatalf("post-resolution write = %+v, err %v", res, err)
	}
	waitConsistent(t, c)
	expectValues(t, c, map[int]int64{1: 5})
}

func TestCrossPartitionAtomicityUnderServerCrash(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := context.Background()

	// Commit a cross-partition update, then crash-and-recover every server
	// one at a time: both halves must survive everywhere, never one.
	res, err := c.Execute(ctx, 0, core.Request{Ops: []workload.Op{write(0, 1000), write(1, 1001)}})
	if err != nil || !res.Committed() {
		t.Fatalf("update = %+v, err %v", res, err)
	}
	waitConsistent(t, c)
	for i := 0; i < c.Size(); i++ {
		c.Crash(i)
		if _, err := c.Recover(i); err != nil {
			t.Fatalf("recover server %d: %v", i, err)
		}
	}
	waitConsistent(t, c)
	expectValues(t, c, map[int]int64{0: 1000, 1: 1001})
}

func TestReadOnlyFanout(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := context.Background()
	for item, v := range map[int]int64{0: 5, 1: 6, 2: 7} {
		if res, err := c.Execute(ctx, 0, core.Request{Ops: []workload.Op{write(item, v)}}); err != nil || !res.Committed() {
			t.Fatalf("seed write item %d: %+v, err %v", item, res, err)
		}
	}
	waitConsistent(t, c)
	res, err := c.Execute(ctx, 1, core.Request{Ops: []workload.Op{read(0), read(1), read(2)}, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadValues[0] != 5 || res.ReadValues[1] != 6 || res.ReadValues[2] != 7 {
		t.Fatalf("fan-out read = %v", res.ReadValues)
	}
	if len(res.FreshnessVec) != 3 {
		t.Fatalf("FreshnessVec = %v", res.FreshnessVec)
	}
}

func TestValueAndErrNotFound(t *testing.T) {
	c := newTestCluster(t, 4)
	if _, err := c.Value(0, 64); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("out-of-range Value error = %v", err)
	}
	if _, err := c.Execute(context.Background(), 0, core.Request{Ops: []workload.Op{write(64, 1), write(0, 1)}}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("out-of-range Execute error = %v", err)
	}
}
