package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"groupsafe/internal/workload"
)

// runConcurrent fires clients goroutines, each executing txns transactions
// against the given delegate, and reports commits and aborts.
func runConcurrent(t *testing.T, c *Cluster, delegate, clients, txns, items int) (commits, aborts int) {
	t.Helper()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := workload.NewGenerator(workload.Config{Items: items, MinOps: 2, MaxOps: 4, WriteProb: 0.5}, int64(g+1))
			for i := 0; i < txns; i++ {
				res, err := c.Execute(context.Background(), delegate, RequestFromWorkload(gen.Next(0, delegate)))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if res.Committed() {
					commits++
				} else {
					aborts++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return commits, aborts
}

// TestClusterBatchedConvergence runs concurrent clients against a batched
// group-safe cluster and checks that every replica converges to identical
// state — batching must not reorder or drop write sets.
func TestClusterBatchedConvergence(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Replicas: 3,
		Items:    512,
		Level:    GroupSafe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	commits, aborts := runConcurrent(t, c, 0, 8, 25, 512)
	if commits == 0 {
		t.Fatal("no transaction committed")
	}
	if commits+aborts != 8*25 {
		t.Fatalf("accounted %d outcomes, want %d", commits+aborts, 8*25)
	}
	if !waitConsistent(c, 5*time.Second) {
		t.Fatal("replicas did not converge under batched delivery")
	}
	// Batching must actually have happened: the delegate sent fewer DATA
	// messages than broadcasts.
	st := c.Replica(0).BroadcastStats()
	if st.DataBatches >= st.Broadcast {
		t.Fatalf("no coalescing observed: %d broadcasts in %d DATA messages", st.Broadcast, st.DataBatches)
	}
	t.Logf("delegate: %d broadcasts in %d DATA batches (mean batch %.1f)",
		st.Broadcast, st.DataBatches, float64(st.Broadcast)/float64(st.DataBatches))
}

// TestClusterBatched2Safe exercises the end-to-end (2-safe) pipeline under
// batching: the one force covering message and commit records amortises over
// batches, and the cluster must stay consistent.
func TestClusterBatched2Safe(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Replicas: 3,
		Items:    256,
		Level:    Safety2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	commits, _ := runConcurrent(t, c, 1, 4, 15, 256)
	if commits == 0 {
		t.Fatal("no transaction committed")
	}
	if !waitConsistent(c, 5*time.Second) {
		t.Fatal("2-safe replicas did not converge under batched delivery")
	}
}

// TestRecoveredDelegateCanCommit is the regression test for the incarnation
// bug: a recovered replica restarts its broadcast message-id counter, and
// without incarnation-namespaced ids its first post-recovery broadcast
// collides with a pre-crash message id, is never ordered, and times out.
func TestRecoveredDelegateCanCommit(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Replicas: 3, Items: 128, Level: GroupSafe, ExecTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	gen := workload.NewGenerator(workload.Config{Items: 128, MinOps: 2, MaxOps: 4, WriteProb: 1}, 7)
	// The future victim delegates a few broadcasts, so its pre-crash message
	// ids exist group-wide.
	for i := 0; i < 5; i++ {
		if _, err := c.Execute(context.Background(), 2, RequestFromWorkload(gen.Next(0, 2))); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash(2)
	for _, r := range c.Replicas()[:2] {
		r.Suspect("s3")
	}
	if _, err := c.Execute(context.Background(), 0, RequestFromWorkload(gen.Next(0, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(2); err != nil {
		t.Fatal(err)
	}
	// The recovered replica must be able to get fresh transactions ordered.
	res, err := c.Execute(context.Background(), 2, RequestFromWorkload(gen.Next(0, 2)))
	if err != nil {
		t.Fatalf("post-recovery execute: %v", err)
	}
	if !res.Committed() {
		t.Fatalf("post-recovery txn aborted: %+v", res)
	}
	if !waitConsistent(c, 5*time.Second) {
		t.Fatal("replicas diverged after recovery")
	}
}

// TestClusterBatchedFailover crashes the sequencer replica while batched
// traffic is in flight and checks that the survivors keep committing and
// converge (uniform agreement across a sequencer failover with batches in
// the pipe).
func TestClusterBatchedFailover(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Replicas: 5,
		Items:    512,
		Level:    Group1Safe,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Warm traffic through the epoch-0 sequencer (replica 0 = s1).
	commits, _ := runConcurrent(t, c, 1, 4, 10, 512)
	if commits == 0 {
		t.Fatal("no transaction committed before the crash")
	}

	// Crash the sequencer; the survivors suspect it and fail over.
	c.Crash(0)
	for _, r := range c.Replicas()[1:] {
		r.Suspect("s1")
	}

	// Post-failover batched traffic must still commit.
	commits2, _ := runConcurrent(t, c, 2, 4, 10, 512)
	if commits2 == 0 {
		t.Fatal("no transaction committed after sequencer failover")
	}
	if !waitConsistent(c, 10*time.Second) {
		t.Fatal("survivors did not converge after a batched failover")
	}
}

// BenchmarkSmallBatchAfterBulkLoad applies two-write batches through the
// certification pipeline, fresh and after one 1024-write transaction (the
// shape of any bulk load) went through the same apply state.  The bulk load
// grows the per-batch certBumps table for good; a small batch must not pay
// for that capacity: the two cases should cost the same.
func BenchmarkSmallBatchAfterBulkLoad(b *testing.B) {
	for _, bulk := range []int{0, 1024} {
		b.Run(fmt.Sprintf("bulk=%d", bulk), func(b *testing.B) {
			c, err := NewCluster(ClusterConfig{Replicas: 1, Items: 2048, Level: GroupSafe})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			r := c.Replica(0)
			st := newApplyState()
			nextID := uint64(1) << 40 // clear of the ids the cluster hands out
			apply := func(writes map[int]int64) {
				nextID++
				batch := []applyItem{{seq: nextID, payload: encodeTxnPayload(phaseNone, nextID, r.cfg.ID, GroupSafe, 0, nil, writes)}}
				r.applyMu.Lock()
				certTechnique{}.applyBatch(r, st, batch)
				r.applyMu.Unlock()
			}
			if bulk > 0 {
				load := make(map[int]int64, bulk)
				for i := 0; i < bulk; i++ {
					load[i] = int64(i)
				}
				apply(load)
			}
			small := map[int]int64{7: 1, 1500: 2}
			apply(small)
			if v, err := c.Value(0, 1500); err != nil || v != 2 {
				b.Fatalf("the small batch was not installed: item 1500 = %d, %v", v, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				apply(small)
			}
		})
	}
}
