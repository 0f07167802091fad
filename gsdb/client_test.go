package gsdb_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"groupsafe/gsdb"
)

func openTest(t *testing.T, opts ...gsdb.Option) *gsdb.Client {
	t.Helper()
	client, err := gsdb.Open(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client
}

func write(item int, value int64) gsdb.Request {
	return gsdb.Request{Ops: []gsdb.Op{{Item: item, Write: true, Value: value}}}
}

func TestExecuteAndWaitConsistent(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(128))
	res, err := client.Execute(ctx, write(1, 11), gsdb.Via(0))
	if err != nil || !res.Committed() {
		t.Fatalf("%+v, %v", res, err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	if err := client.WaitConsistent(waitCtx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < client.Size(); i++ {
		if v, err := client.Value(i, 1); err != nil || v != 11 {
			t.Fatalf("replica %d: %d, %v", i, v, err)
		}
	}
}

// TestSubmitRespondedThenDurable is the acceptance check on the async commit
// handle: Responded resolves strictly no later than Durable for the
// force-on-commit levels, and both resolve for group-safe (where Durable
// forces the log on demand).
func TestSubmitRespondedThenDurable(t *testing.T) {
	ctx := context.Background()
	for _, level := range []gsdb.SafetyLevel{gsdb.GroupSafe, gsdb.Safety2, gsdb.VerySafe} {
		t.Run(level.String(), func(t *testing.T) {
			client := openTest(t,
				gsdb.WithReplicas(3),
				gsdb.WithItems(128),
				gsdb.WithSafetyLevel(level),
				gsdb.WithDiskSyncDelay(time.Millisecond),
			)
			commit, err := client.Submit(ctx, write(2, 22))
			if err != nil {
				t.Fatal(err)
			}
			res, err := commit.Responded(ctx)
			respondedAt := time.Now()
			if err != nil || !res.Committed() {
				t.Fatalf("%+v, %v", res, err)
			}
			if res.Level != level {
				t.Fatalf("level = %v, want %v", res.Level, level)
			}
			if err := commit.Durable(ctx); err != nil {
				t.Fatal(err)
			}
			durableAt := time.Now()
			if durableAt.Before(respondedAt) {
				t.Fatal("Durable resolved before Responded")
			}
			// Both points are idempotent.
			if _, err := commit.Responded(ctx); err != nil {
				t.Fatal(err)
			}
			if err := commit.Durable(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSubmitReadOnlyDurableIsNil(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(64))
	commit, err := client.Submit(ctx, gsdb.Request{Ops: []gsdb.Op{{Item: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := commit.Responded(ctx); err != nil || !res.Committed() {
		t.Fatalf("%+v, %v", res, err)
	}
	if err := commit.Durable(ctx); err != nil {
		t.Fatalf("read-only Durable: %v", err)
	}
}

func TestSubmitCancelledResolvesHandle(t *testing.T) {
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(64))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	commit, err := client.Submit(ctx, write(3, 33))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := commit.Responded(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit resolved with: %v", err)
	}
	if err := commit.Durable(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit Durable: %v", err)
	}
}

// TestPerTxnVerySafeOverride is the black-box face of the acceptance
// criterion: WithSafety(VerySafe) on a group-safe cluster waits for the
// remote acknowledgements (message count, not timing).
func TestPerTxnVerySafeOverride(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(64), gsdb.WithSafetyLevel(gsdb.GroupSafe))
	res, err := client.Execute(ctx, write(4, 44), gsdb.WithSafety(gsdb.VerySafe))
	if err != nil || !res.Committed() {
		t.Fatalf("%+v, %v", res, err)
	}
	if res.Level != gsdb.VerySafe {
		t.Fatalf("level = %v, want very-safe", res.Level)
	}
	if got := client.TotalStats().AcksSent; got != uint64(client.Size()-1) {
		t.Fatalf("very-safe acks on the wire = %d, want %d", got, client.Size()-1)
	}
}

func TestPerTxnSafetyUnavailable(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(64), gsdb.WithSafetyLevel(gsdb.GroupSafe))
	_, err := client.Execute(ctx, write(5, 55), gsdb.WithSafety(gsdb.Safety2))
	if !errors.Is(err, gsdb.ErrSafetyUnavailable) {
		t.Fatalf("2-safe on a classical cluster: %v", err)
	}
}

func TestClosedClient(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(64))
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Execute(ctx, write(1, 1)); !errors.Is(err, gsdb.ErrClosed) {
		t.Fatalf("Execute after Close: %v", err)
	}
	if _, err := client.Submit(ctx, write(1, 1)); !errors.Is(err, gsdb.ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
	if err := client.WaitConsistent(ctx); !errors.Is(err, gsdb.ErrClosed) {
		t.Fatalf("WaitConsistent after Close: %v", err)
	}
	if err := client.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestRoundRobinAvoidsCrashedReplicas: unpinned Executes keep committing
// after a minority crash, because the default delegate choice skips crashed
// replicas.
func TestRoundRobinAvoidsCrashedReplicas(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(64))
	client.Crash(2)
	client.Suspect(0, 2)
	client.Suspect(1, 2)
	for i := 0; i < 6; i++ {
		res, err := client.Execute(ctx, write(i, int64(i)))
		if err != nil || !res.Committed() {
			t.Fatalf("txn %d with a crashed replica: %+v, %v", i, res, err)
		}
	}
	if client.LiveCount() != 2 {
		t.Fatalf("LiveCount = %d", client.LiveCount())
	}
}

// TestDeadlineMatchesTimeoutAndContext: the acceptance check on the error
// taxonomy — a deadline expiry matches ErrTimeout AND context.DeadlineExceeded
// through the public API.
func TestDeadlineMatchesTimeoutAndContext(t *testing.T) {
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(64), gsdb.WithSafetyLevel(gsdb.VerySafe))
	client.Crash(2)
	client.Suspect(0, 2)
	client.Suspect(1, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := client.Execute(ctx, write(1, 1), gsdb.Via(0))
	if !errors.Is(err, gsdb.ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline expiry should match ErrTimeout and DeadlineExceeded: %v", err)
	}
}

func TestQueryMonotonicSessionReads(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(128))

	var session uint64 // largest freshness token seen so far
	for i := 0; i < 10; i++ {
		res, err := client.Execute(ctx, write(5, int64(100+i)), gsdb.Via(0))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed() {
			continue
		}
		if res.Freshness == 0 {
			t.Fatal("committed update without freshness token")
		}
		if res.Freshness > session {
			session = res.Freshness
		}
		// Read-your-writes from a DIFFERENT replica via the session token.
		read, err := client.Execute(ctx, gsdb.Query(5), gsdb.Via(1+i%2), gsdb.WithFreshness(session))
		if err != nil {
			t.Fatal(err)
		}
		if got := read.ReadValues[5]; got != int64(100+i) {
			t.Fatalf("session read = %d, want %d", got, 100+i)
		}
		if read.Freshness > session {
			session = read.Freshness
		}
	}
	if q := client.TotalStats().Queries; q == 0 {
		t.Fatal("Queries counter did not move")
	}
}

func TestReadOnlyOptionRejectsWrites(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3))
	_, err := client.Execute(ctx, write(1, 1), gsdb.ReadOnly())
	if err == nil {
		t.Fatal("write under ReadOnly() accepted")
	}
}

func TestLazyQueryRejectsFreshnessFloor(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithSafetyLevel(gsdb.Safety1Lazy))
	if _, err := client.Execute(ctx, write(2, 22), gsdb.Via(0)); err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	if err := client.WaitConsistent(waitCtx); err != nil {
		t.Fatal(err)
	}
	// Any replica serves a plain query from its local state...
	for i := 0; i < client.Size(); i++ {
		res, err := client.Execute(ctx, gsdb.Query(2), gsdb.Via(i))
		if err != nil || res.ReadValues[2] != 22 || res.Freshness != 0 {
			t.Fatalf("query via replica %d: %+v, %v", i, res, err)
		}
	}
	// ...but freshness floors have no meaning without a total order.
	_, err := client.Execute(ctx, gsdb.Query(2), gsdb.Via(1), gsdb.WithFreshness(1))
	if !errors.Is(err, gsdb.ErrSafetyUnavailable) {
		t.Fatalf("freshness on lazy cluster: %v", err)
	}
}
