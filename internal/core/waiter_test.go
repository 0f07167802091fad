package core

import (
	"context"
	"testing"
	"time"
)

// TestPrepareVoteDoesNotAnswerDecideWaiter pins defect D1: a cross-partition
// prepare and the decide that resolves it share the gid, so a prepare that is
// delivered late — after its submitter gave up and the ABORT decide was
// submitted — must not hand its yes vote to the decide's waiter, who would
// report "committed" for a transaction the group aborts.
func TestPrepareVoteDoesNotAnswerDecideWaiter(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	// Without a majority nothing is delivered: the decide below stays in
	// flight, so its waiter is answered only by what this test externalises.
	c.Crash(1)
	c.Crash(2)
	r := c.Replica(0)
	const gid = 0xd1

	type decided struct {
		outcome Outcome
		err     error
	}
	done := make(chan decided, 1)
	go func() {
		out, _, _, err := r.SubmitDecide(context.Background(), gid, GroupSafe, false, nil)
		done <- decided{out, err}
	}()
	registered := func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.pending) == 1
	}
	for deadline := time.Now().Add(2 * time.Second); !registered(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the decide's waiter was never registered")
		}
	}

	// The late prepare's yes vote, under the same gid.
	r.externalize([]stagedTxn{{item: applyItem{seq: 1}, txnID: gid, level: GroupSafe, outcome: OutcomeCommitted, vote: true}})
	select {
	case d := <-done:
		t.Fatalf("the prepare's vote answered the decide's waiter: outcome %v, err %v", d.outcome, d.err)
	case <-time.After(50 * time.Millisecond):
	}

	// The decide's own delivery does.
	r.externalize([]stagedTxn{{item: applyItem{seq: 2}, txnID: gid, level: GroupSafe, outcome: OutcomeAborted}})
	select {
	case d := <-done:
		if d.err != nil || d.outcome != OutcomeAborted {
			t.Fatalf("decide = (%v, %v), want aborted", d.outcome, d.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the decide's own delivery did not answer its waiter")
	}
}
