package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"groupsafe/internal/wal"
)

// waiterCounts returns the sizes of the replica's pending-outcome and
// very-safe bookkeeping maps (white-box: the deregistration satellite).
func waiterCounts(r *Replica) (pending, veryAcks, veryDone int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending), len(r.veryAcks), len(r.veryDone)
}

func assertNoWaiters(t *testing.T, r *Replica) {
	t.Helper()
	if p, a, d := waiterCounts(r); p != 0 || a != 0 || d != 0 {
		t.Fatalf("leaked waiter state: pending=%d veryAcks=%d veryDone=%d", p, a, d)
	}
}

// TestExecuteCancelledBeforeBroadcast: a context cancelled before submission
// returns promptly with a context.Canceled-wrapped error, registers no
// waiter, and leaves the cluster fully operational.
func TestExecuteCancelledBeforeBroadcast(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Execute(ctx, 0, writeReq(0, 1, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled execute: %v", err)
	}
	assertNoWaiters(t, c.Replica(0))

	res, err := c.Execute(context.Background(), 0, writeReq(0, 1, 2))
	if err != nil || !res.Committed() {
		t.Fatalf("cluster did not make progress after a cancelled submission: %+v, %v", res, err)
	}
}

// TestExecuteCancelledAfterBroadcast cancels the context in the
// delivered-but-unprocessed window (the deliver hook): the Execute call must
// return promptly with the cancellation, deregister its waiter, and the
// transaction itself still commits group-wide — only the notification was
// abandoned.
func TestExecuteCancelledAfterBroadcast(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	ctx, cancel := context.WithCancel(context.Background())
	delegate := c.Replica(0)
	delegate.SetDeliverHook(func(uint64) {
		cancel()
		time.Sleep(50 * time.Millisecond) // let the waiter observe ctx first
	})
	start := time.Now()
	_, err := c.Execute(ctx, 0, writeReq(0, 2, 22))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled execute: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled execute was not prompt: %v", elapsed)
	}
	assertNoWaiters(t, delegate)
	delegate.SetDeliverHook(nil)

	// The broadcast had already left: the write must still be applied
	// everywhere (poll — the abandoned notification tells us nothing about
	// when the installs land), and the cluster keeps serving.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if v, _ := c.Value(1, 2); v == 22 {
			break
		}
		if time.Now().After(deadline) {
			v, _ := c.Value(1, 2)
			t.Fatalf("abandoned transaction was lost: item2=%d", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !waitConsistent(c, 3*time.Second) {
		t.Fatal("replicas did not converge after the abandoned notification")
	}
	res, err := c.Execute(context.Background(), 0, writeReq(0, 3, 33))
	if err != nil || !res.Committed() {
		t.Fatalf("cluster did not make progress: %+v, %v", res, err)
	}
}

// TestLazyExecuteBesideOpenTxnIsPrompt: the local execution path waits on
// no other transaction — a lazy Execute writing an item an open local
// transaction has read and written commits at once, and the open
// transaction's own commit then fails validation instead.
func TestLazyExecuteBesideOpenTxnIsPrompt(t *testing.T) {
	c := newTestCluster(t, Safety1Lazy, 3)
	r := c.Replica(0)

	open, err := r.DB().Begin(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open.Read(7); err != nil {
		t.Fatal(err)
	}
	if err := open.Write(7, 1); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	res, err := c.Execute(ctx, 0, writeReq(0, 7, 2))
	if err != nil || !res.Committed() {
		t.Fatalf("lazy execute beside an open txn: %+v, %v", res, err)
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("lazy execute beside an open txn took %v", e)
	}
	if err := open.Commit(); err == nil {
		t.Fatal("the open txn committed over a write made after its read")
	}
	if v, _ := c.Value(0, 7); v != 2 {
		t.Fatalf("item 7 = %d, want 2", v)
	}
}

// TestExecuteCancelledDuringVerySafeAckWait cancels while the delegate waits
// for the unreachable server's acknowledgement: prompt return, waiter and
// very-safe bookkeeping deregistered, no goroutine leak.
func TestExecuteCancelledDuringVerySafeAckWait(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Replicas:    3,
		Items:       64,
		Level:       VerySafe,
		ExecTimeout: 30 * time.Second, // the context, not the default, must end the wait
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Warm up, then take a server down so the ack set can never complete.
	if res, err := c.Execute(context.Background(), 0, writeReq(0, 1, 1)); err != nil || !res.Committed() {
		t.Fatalf("warm-up: %+v, %v", res, err)
	}
	before := runtime.NumGoroutine()
	c.Crash(2)
	c.Replica(0).Suspect("s3")
	c.Replica(1).Suspect("s3")

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Execute(ctx, 0, writeReq(0, 2, 2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled very-safe execute: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation during the ack wait was not prompt: %v", elapsed)
	}
	assertNoWaiters(t, c.Replica(0))

	// No goroutine may be stuck waiting on behalf of the cancelled call.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestExecuteDeadlineWrapsErrTimeout: a context deadline expiry matches BOTH
// the engine's ErrTimeout and context.DeadlineExceeded.
func TestExecuteDeadlineWrapsErrTimeout(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Replicas: 3, Items: 64, Level: VerySafe, ExecTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Crash(2)
	c.Replica(0).Suspect("s3")
	c.Replica(1).Suspect("s3")

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err = c.Execute(ctx, 0, writeReq(0, 1, 1))
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline expiry should match ErrTimeout and DeadlineExceeded: %v", err)
	}
	assertNoWaiters(t, c.Replica(0))
}

// TestPerTxnForceCounts asserts, by log-force count rather than timing, that
// a group-safe transaction pays no force on the response path while a
// group-1-safe override on the same cluster forces the delegate's log before
// the response.  Forces are counted from after the start-of-life id mark
// force.
func TestPerTxnForceCounts(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	log := c.Replica(0).DB().Log().(*wal.MemLog)
	start := log.Syncs()
	syncs := func() uint64 { return log.Syncs() - start }

	res, err := c.Execute(context.Background(), 0, writeReq(0, 1, 1))
	if err != nil || !res.Committed() {
		t.Fatalf("group-safe txn: %+v, %v", res, err)
	}
	if got := syncs(); got != 0 {
		t.Fatalf("group-safe txn forced the delegate log %d times; durability must stay off the response path", got)
	}
	if res.Level != GroupSafe {
		t.Fatalf("level = %v", res.Level)
	}

	lvl := Group1Safe
	req := writeReq(0, 2, 2)
	req.Safety = &lvl
	res, err = c.Execute(context.Background(), 0, req)
	if err != nil || !res.Committed() {
		t.Fatalf("group-1-safe override: %+v, %v", res, err)
	}
	if res.Level != Group1Safe {
		t.Fatalf("level = %v, want group-1-safe", res.Level)
	}
	if got := syncs(); got == 0 {
		t.Fatal("group-1-safe override did not force the delegate log before the response")
	}
}

// TestPerTxnVerySafeOverrideAckCounts is the acceptance check: a
// WithSafety(VerySafe)-style transaction on a plain group-safe cluster
// provably waits for the remote acknowledgements (replicas-1 ack messages on
// the wire, counted — not timed), while surrounding group-safe transactions
// generate none; and with a server down the override cannot terminate while
// plain transactions still commit.
func TestPerTxnVerySafeOverrideAckCounts(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	acksSent := func() uint64 { return c.TotalStats().AcksSent }

	if _, err := c.Execute(context.Background(), 0, writeReq(0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := acksSent(); got != 0 {
		t.Fatalf("plain group-safe txn produced %d very-safe acks", got)
	}

	lvl := VerySafe
	req := writeReq(0, 2, 2)
	req.Safety = &lvl
	res, err := c.Execute(context.Background(), 0, req)
	if err != nil || !res.Committed() {
		t.Fatalf("very-safe override: %+v, %v", res, err)
	}
	if res.Level != VerySafe {
		t.Fatalf("level = %v, want very-safe", res.Level)
	}
	// The response cannot have been produced before both remote replicas
	// acknowledged: the delegate's veryDone gate needs all member acks, so
	// by return time exactly replicas-1 ack messages were sent.
	if got := acksSent(); got != uint64(c.Size()-1) {
		t.Fatalf("acks on the wire = %d, want %d", got, c.Size()-1)
	}

	// Mixed workload: a following group-safe transaction adds no acks.
	if _, err := c.Execute(context.Background(), 1, writeReq(0, 3, 3)); err != nil {
		t.Fatal(err)
	}
	if got := acksSent(); got != uint64(c.Size()-1) {
		t.Fatalf("group-safe txn after the override produced acks: %d", got)
	}

	// One server down: the very-safe override cannot terminate...
	c.Crash(2)
	c.Replica(0).Suspect("s3")
	c.Replica(1).Suspect("s3")
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	req = writeReq(0, 4, 4)
	req.Safety = &lvl
	if _, err := c.Execute(ctx, 0, req); !errors.Is(err, ErrTimeout) {
		t.Fatalf("very-safe override with a crashed server: %v", err)
	}
	// ...while the cluster's own level keeps committing.
	res, err = c.Execute(context.Background(), 0, writeReq(0, 5, 5))
	if err != nil || !res.Committed() {
		t.Fatalf("group-safe txn with a crashed server: %+v, %v", res, err)
	}
}

// TestPerTxnSafetyResolution covers the override lattice: unavailable
// machinery is rejected with ErrSafetyUnavailable, weaker-than-floor
// requests are canonicalised up, stronger clusters honour downgrades.
func TestPerTxnSafetyResolution(t *testing.T) {
	bg := context.Background()

	// 2-safe needs the end-to-end message log the group-safe cluster lacks.
	c := newTestCluster(t, GroupSafe, 3)
	lvl := Safety2
	req := writeReq(0, 1, 1)
	req.Safety = &lvl
	if _, err := c.Execute(bg, 0, req); !errors.Is(err, ErrSafetyUnavailable) {
		t.Fatalf("2-safe override on a classical cluster: %v", err)
	}

	// Weaker-than-floor requests ride the broadcast anyway: canonicalised up.
	weak := Safety0
	req = writeReq(0, 2, 2)
	req.Safety = &weak
	res, err := c.Execute(bg, 0, req)
	if err != nil || res.Level != GroupSafe {
		t.Fatalf("0-safe override on a group cluster: %+v, %v (want canonicalised to group-safe)", res, err)
	}

	// A 2-safe cluster honours both a downgrade and a very-safe upgrade.
	c2 := newTestCluster(t, Safety2, 3)
	down := GroupSafe
	req = writeReq(0, 3, 3)
	req.Safety = &down
	if res, err := c2.Execute(bg, 0, req); err != nil || res.Level != GroupSafe || !res.Committed() {
		t.Fatalf("group-safe downgrade on a 2-safe cluster: %+v, %v", res, err)
	}
	up := VerySafe
	req = writeReq(0, 4, 4)
	req.Safety = &up
	if res, err := c2.Execute(bg, 0, req); err != nil || res.Level != VerySafe || !res.Committed() {
		t.Fatalf("very-safe upgrade on a 2-safe cluster: %+v, %v", res, err)
	}

	// A lazy cluster has a single response point: group levels error out.
	lp, err := NewCluster(ClusterConfig{Replicas: 3, Items: 64, Level: Safety1Lazy, ExecTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	grp := GroupSafe
	req = writeReq(0, 5, 5)
	req.Safety = &grp
	if _, err := lp.Execute(bg, 0, req); !errors.Is(err, ErrSafetyUnavailable) {
		t.Fatalf("group-safe override on a lazy cluster: %v", err)
	}
	// The cluster's own level is accepted as an explicit override.
	own := Safety1Lazy
	req = writeReq(0, 6, 6)
	req.Safety = &own
	if res, err := lp.Execute(bg, 0, req); err != nil || !res.Committed() || res.Level != Safety1Lazy {
		t.Fatalf("own-level override on a lazy cluster: %+v, %v", res, err)
	}
}

// TestCommitLSNDurabilityGap checks Result.CommitLSN and WaitDurable: under
// group-safe the commit record is NOT durable at response time and a
// WaitDurable forces it; under group-1-safe it already is.
func TestCommitLSNDurabilityGap(t *testing.T) {
	bg := context.Background()
	c := newTestCluster(t, GroupSafe, 3)
	res, err := c.Execute(bg, 0, writeReq(0, 1, 1))
	if err != nil || !res.Committed() {
		t.Fatalf("%+v, %v", res, err)
	}
	if res.CommitLSN == 0 {
		t.Fatal("committed update transaction reported no CommitLSN")
	}
	log := c.Replica(0).DB().Log().(*wal.MemLog)
	if durable := log.DurableLen(); durable >= int(res.CommitLSN) {
		t.Fatalf("group-safe commit already durable at response time (durable=%d, lsn=%d)", durable, res.CommitLSN)
	}
	if err := c.Replica(0).WaitDurable(bg, res.CommitLSN); err != nil {
		t.Fatal(err)
	}
	if durable := log.DurableLen(); durable < int(res.CommitLSN) {
		t.Fatalf("WaitDurable did not force the log (durable=%d, lsn=%d)", durable, res.CommitLSN)
	}

	c2 := newTestCluster(t, Group1Safe, 3)
	res, err = c2.Execute(bg, 0, writeReq(0, 1, 1))
	if err != nil || !res.Committed() || res.CommitLSN == 0 {
		t.Fatalf("%+v, %v", res, err)
	}
	log2 := c2.Replica(0).DB().Log().(*wal.MemLog)
	if durable := log2.DurableLen(); durable < int(res.CommitLSN) {
		t.Fatalf("group-1-safe commit not durable at response time (durable=%d, lsn=%d)", durable, res.CommitLSN)
	}

	// Read-only transactions log nothing.
	res, err = c2.Execute(bg, 0, readReq(1))
	if err != nil || res.CommitLSN != 0 {
		t.Fatalf("read-only CommitLSN = %d, %v", res.CommitLSN, err)
	}
}

// TestWaitConsistentReportsDivergence drives two conflicting lazy commits
// and asserts the redesigned WaitConsistent names the diverging item instead
// of returning a bare false.
func TestWaitConsistentReportsDivergence(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Replicas:    2,
		Items:       64,
		Level:       Safety1Lazy,
		ExecTimeout: 5 * time.Second,
		// Delay the propagations so the two conflicting write sets provably
		// cross on the wire: each replica commits its own value first, then
		// applies the other's — opposite orders, permanent divergence.
		LazyPropagationDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.Execute(context.Background(), 0, writeReq(0, 7, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(context.Background(), 1, writeReq(0, 7, 200)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // let both lazy write sets cross

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err = c.WaitConsistent(ctx)
	if err == nil {
		t.Skip("lazy propagation happened to converge; divergence not observable this run")
	}
	var div *DivergenceError
	if !errors.As(err, &div) {
		t.Fatalf("WaitConsistent error is not a DivergenceError: %v", err)
	}
	if div.Item != 7 {
		t.Fatalf("diverging item = %d, want 7 (%v)", div.Item, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("divergence error must wrap the context error: %v", err)
	}
}
