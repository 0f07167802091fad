package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"groupsafe/internal/workload"
)

// TestBoundedStalenessLease pins the lease semantics of Request.MaxStaleness:
// a replica that IS the freshest state it knows about answers under any
// bound, while a replica that has learnt (via a peer advert) of state far
// ahead of its own rejects with ErrTooStale IMMEDIATELY — the lease never
// waits; redirecting is the client's job.
func TestBoundedStalenessLease(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Replicas:    3,
		Items:       64,
		Level:       GroupSafe,
		ExecTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	res, err := c.Execute(ctx, 0, Request{Ops: []workload.Op{{Item: 1, Write: true, Value: 11}}})
	if err != nil || res.Outcome != OutcomeCommitted {
		t.Fatalf("%+v, %v", res, err)
	}
	r := c.Replica(1)
	for deadline := time.Now().Add(3 * time.Second); r.LastAppliedSeq() < res.Freshness; {
		if time.Now().After(deadline) {
			t.Fatalf("replica 1 never applied seq %d", res.Freshness)
		}
		time.Sleep(time.Millisecond)
	}

	q := Request{ReadOnly: true, MaxStaleness: time.Nanosecond, Ops: []workload.Op{{Item: 1}}}

	// Replica 1 knows of nothing fresher than itself: within bound, answers.
	out, err := c.Execute(ctx, 1, q)
	if err != nil {
		t.Fatalf("freshest-known replica rejected its own lease: %v", err)
	}
	if out.ReadValues[1] != 11 {
		t.Fatalf("leased read = %d, want 11", out.ReadValues[1])
	}

	// Teach replica 1 of a far-ahead peer (advertising as replica 2, a real
	// member — adverts from unknown peers are ignored): its own snapshot is
	// now provably outside any tight bound, and the lease must fail fast,
	// not park.
	r.notePeerApplied(c.Replica(2).ID(), r.LastAppliedSeq()+1_000_000)
	start := time.Now()
	if _, err := c.Execute(ctx, 1, q); !errors.Is(err, ErrTooStale) {
		t.Fatalf("stale replica served a leased read: %v", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("lease rejection took %v: it must reject, never wait", waited)
	}

	// Replica 2 never saw the ghost advert and still answers.
	if _, err := c.Execute(ctx, 2, q); err != nil {
		t.Fatalf("unaffected replica rejected: %v", err)
	}

	// Without MaxStaleness the poisoned replica still serves plain and
	// freshness-floored reads as before: the lease is opt-in per query.
	if _, err := c.Execute(ctx, 1, Request{ReadOnly: true, Ops: []workload.Op{{Item: 1}}}); err != nil {
		t.Fatalf("plain read on advert-rich replica: %v", err)
	}
}

// TestStalenessLeaseNeedsComparableSequence: at a level without a
// totally-ordered cross-replica sequence (1-safe-lazy) the lease is
// meaningless and rejected like a freshness floor.
func TestStalenessLeaseNeedsComparableSequence(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Replicas:    3,
		Items:       64,
		Level:       Safety1Lazy,
		ExecTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := Request{ReadOnly: true, MaxStaleness: time.Second, Ops: []workload.Op{{Item: 1}}}
	if _, err := c.Execute(context.Background(), 1, q); !errors.Is(err, ErrSafetyUnavailable) {
		t.Fatalf("lazy lease returned %v, want ErrSafetyUnavailable", err)
	}
}

// TestPeerAdvertsFlowOverOrderTraffic: committing updates is enough for every
// replica to learn the others' applied sequences — the adverts piggyback on
// the ORDER/ACK messages the updates already generate, costing zero extra
// messages.
func TestPeerAdvertsFlowOverOrderTraffic(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Replicas:    3,
		Items:       64,
		Level:       GroupSafe,
		ExecTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var last Result
	for i := 0; i < 5; i++ {
		res, err := c.Execute(ctx, 0, Request{Ops: []workload.Op{{Item: i, Write: true, Value: int64(i)}}})
		if err != nil || res.Outcome != OutcomeCommitted {
			t.Fatalf("%+v, %v", res, err)
		}
		last = res
	}
	// Every replica must shortly know SOME peer state at least as fresh as
	// the second-to-last commit (the final sequence's acks may still be in
	// flight, but earlier adverts have long since ridden the wire).
	want := last.Freshness - 1
	for i := 0; i < 3; i++ {
		r := c.Replica(i)
		ok := false
		for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
			if r.maxKnownSeq() >= want {
				ok = true
				break
			}
			time.Sleep(time.Millisecond)
		}
		if !ok {
			t.Fatalf("replica %d max known seq %d, want >= %d: adverts not flowing", i, r.maxKnownSeq(), want)
		}
	}
}
