package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/workload"
)

// broadcastTotals sums the atomic-broadcast counters across the cluster.
func broadcastTotals(c *Cluster) abcast.Stats {
	var total abcast.Stats
	for _, r := range c.Replicas() {
		s := r.BroadcastStats()
		total.Broadcast += s.Broadcast
		total.Delivered += s.Delivered
		total.Ordered += s.Ordered
		total.MsgsSent += s.MsgsSent
		total.DataBatches += s.DataBatches
	}
	return total
}

// settleBroadcast waits until the cluster's wire counters stop moving (acks
// of prior updates can trail the Execute responses).
func settleBroadcast(t *testing.T, c *Cluster) abcast.Stats {
	t.Helper()
	prev := broadcastTotals(c)
	prevNet, _ := c.Network().Stats()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := broadcastTotals(c)
		curNet, _ := c.Network().Stats()
		if cur == prev && curNet == prevNet {
			return cur
		}
		prev, prevNet = cur, curNet
	}
	t.Fatal("broadcast counters never settled")
	return prev
}

// TestReadOnlyTxnsGenerateZeroBroadcastMessages is the acceptance-criterion
// message-count proof: read-only transactions on the certification technique
// produce zero DATA/ORDER/ACK traffic — not a single protocol message or
// point-to-point send happens on their behalf.
func TestReadOnlyTxnsGenerateZeroBroadcastMessages(t *testing.T) {
	t.Run("certification", func(t *testing.T) {
		c, err := NewCluster(ClusterConfig{
			Replicas:    3,
			Items:       256,
			Level:       GroupSafe,
			ExecTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		// Warm the cluster with real update traffic so the wire counters
		// are demonstrably live.
		for i := 0; i < 10; i++ {
			if _, err := c.Execute(context.Background(), i%3, writeReq(0, i, int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if !waitConsistent(c, 2*time.Second) {
			t.Fatal("replicas did not converge")
		}
		before := settleBroadcast(t, c)
		beforeNet, _ := c.Network().Stats()
		if before.MsgsSent == 0 {
			t.Fatal("update warm-up sent no protocol messages; the counter is dead")
		}

		// A storm of queries across every replica.
		for i := 0; i < 60; i++ {
			res, err := c.Execute(context.Background(), i%3, Request{
				ReadOnly: true,
				Ops:      []workload.Op{{Item: i % 10}, {Item: (i + 1) % 10}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Committed() {
				t.Fatalf("query %d not committed: %+v", i, res)
			}
			if res.Freshness == 0 {
				t.Fatalf("query %d carries no freshness token", i)
			}
		}

		after := broadcastTotals(c)
		afterNet, _ := c.Network().Stats()
		if after != before {
			t.Fatalf("read-only transactions generated broadcast traffic:\n before %+v\n after  %+v", before, after)
		}
		if afterNet != beforeNet {
			t.Fatalf("read-only transactions sent %d point-to-point messages", afterNet-beforeNet)
		}
		if q := c.TotalStats().Queries; q != 60 {
			t.Fatalf("Queries counter = %d, want 60", q)
		}
	})
}

// TestReadYourWritesAcrossReplicas exercises the monotonic-session-read
// contract: an update's Freshness token, passed as MinFreshness of a read at
// ANOTHER replica, guarantees the read observes the update.
func TestReadYourWritesAcrossReplicas(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	for i := 0; i < 20; i++ {
		res, err := c.Execute(context.Background(), 0, writeReq(0, 42, int64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed() {
			continue
		}
		if res.Freshness == 0 {
			t.Fatal("committed update carries no freshness token")
		}
		for delegate := 1; delegate < 3; delegate++ {
			read, err := c.Execute(context.Background(), delegate, Request{
				ReadOnly:     true,
				MinFreshness: res.Freshness,
				Ops:          []workload.Op{{Item: 42}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := read.ReadValues[42]; got != int64(1000+i) {
				t.Fatalf("replica %d with freshness %d read %d, want %d", delegate, res.Freshness, got, 1000+i)
			}
			if read.Freshness < res.Freshness {
				t.Fatalf("read freshness %d < floor %d", read.Freshness, res.Freshness)
			}
		}
	}
}

// TestFreshnessWaitHonoursContext: a freshness floor beyond anything applied
// must block until the deadline, not spin or return stale data.
func TestFreshnessWaitHonoursContext(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	if _, err := c.Execute(context.Background(), 0, writeReq(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := c.Execute(ctx, 1, Request{ReadOnly: true, MinFreshness: 1 << 40, Ops: []workload.Op{{Item: 1}}})
	if !errors.Is(err, ErrTimeout) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unreachable freshness floor returned %v, want deadline error", err)
	}
}

// TestReadOnlyRejectsWrites: the ReadOnly declaration fails loudly when the
// request could write.
func TestReadOnlyRejectsWrites(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	_, err := c.Execute(context.Background(), 0, Request{ReadOnly: true, Ops: []workload.Op{{Item: 1, Write: true, Value: 9}}})
	if !errors.Is(err, ErrReadOnlyWrites) {
		t.Fatalf("write in read-only txn returned %v", err)
	}
	_, err = c.Execute(context.Background(), 0, Request{ReadOnly: true, Compute: func(map[int]int64) []workload.Op { return nil }})
	if !errors.Is(err, ErrReadOnlyWrites) {
		t.Fatalf("compute hook in read-only txn returned %v", err)
	}
}

// TestReadOnlyNeverAbortsUnderWriteStorm: queries interleaved with a
// conflicting update storm across the cluster never abort and always return a
// consistent snapshot (both items written by the same update transaction).
func TestReadOnlyNeverAbortsUnderWriteStorm(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Write the pair (i, i) so any consistent snapshot shows equal values.
			_, err := c.Execute(context.Background(), i%3, Request{Ops: []workload.Op{
				{Item: 5, Write: true, Value: int64(i)},
				{Item: 6, Write: true, Value: int64(i)},
			}})
			if err != nil {
				select {
				case errCh <- err:
				default:
				}
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		res, err := c.Execute(context.Background(), i%3, Request{ReadOnly: true, Ops: []workload.Op{{Item: 5}, {Item: 6}}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != OutcomeCommitted {
			t.Fatalf("query aborted: %+v", res)
		}
		if res.ReadValues[5] != res.ReadValues[6] {
			t.Fatalf("torn snapshot: item5=%d item6=%d", res.ReadValues[5], res.ReadValues[6])
		}
	}
	close(stop)
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestReadMixOneCopyEquivalence: mixing snapshot queries into a conflicting
// update stream must not perturb the applied state — under concurrent mixed
// clients the replicas converge byte-identical (WaitConsistent compares
// values AND versions).
func TestReadMixOneCopyEquivalence(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Replicas: 3, Items: 128, Level: GroupSafe, ExecTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	for cl := 0; cl < 3; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			gen := workload.NewGenerator(workload.Config{
				Items: 128, MinOps: 2, MaxOps: 4, WriteProb: 0.5,
				ReadFraction: 0.5, QueryMinOps: 1, QueryMaxOps: 3,
			}, int64(cl+1))
			for i := 0; i < 40; i++ {
				if _, err := c.Execute(context.Background(), cl, RequestFromWorkload(gen.Next(0, cl))); err != nil {
					errCh <- err
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if !waitConsistent(c, 5*time.Second) {
		t.Fatal("replicas did not converge under the read mix")
	}
}

// TestComputeQueryHonoursFreshness: a Compute-bearing request bypasses the
// read-only fast path (the hook could write), but a freshness floor must
// still gate its read phase, and the token must describe the snapshot the
// values came from.
func TestComputeQueryHonoursFreshness(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	for i := 0; i < 10; i++ {
		res, err := c.Execute(context.Background(), 0, writeReq(0, 9, int64(500+i)))
		if err != nil || !res.Committed() {
			t.Fatalf("update %d: %+v, %v", i, res, err)
		}
		read, err := c.Execute(context.Background(), 1+i%2, Request{
			MinFreshness: res.Freshness,
			Ops:          []workload.Op{{Item: 9}},
			Compute:      func(map[int]int64) []workload.Op { return nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := read.ReadValues[9]; got != int64(500+i) {
			t.Fatalf("compute read with floor %d saw %d, want %d", res.Freshness, got, 500+i)
		}
		if read.Freshness < res.Freshness {
			t.Fatalf("compute read token %d below floor %d", read.Freshness, res.Freshness)
		}
	}
	// On a local-level cluster the floor is rejected on the Compute path too.
	lc := newTestCluster(t, Safety1Lazy, 3)
	_, err := lc.Execute(context.Background(), 0, Request{
		MinFreshness: 1,
		Ops:          []workload.Op{{Item: 9}},
		Compute:      func(map[int]int64) []workload.Op { return nil },
	})
	if !errors.Is(err, ErrSafetyUnavailable) {
		t.Fatalf("freshness floor on local level returned %v", err)
	}
}
