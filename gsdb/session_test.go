package gsdb_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"groupsafe/gsdb"
)

// TestSessionReadYourWrites: a Session threads the freshness token by itself —
// every query after a committed write sees that write, from whatever replica
// the router picks, with no manual WithFreshness plumbing.
func TestSessionReadYourWrites(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(64))
	s := client.NewSession()

	var last uint64
	for i := 0; i < 10; i++ {
		res, err := s.Execute(ctx, write(7, int64(100+i)))
		if err != nil || !res.Committed() {
			t.Fatalf("write %d: %+v, %v", i, res, err)
		}
		if s.Token() <= last {
			t.Fatalf("write %d: token %d did not grow past %d", i, s.Token(), last)
		}
		last = s.Token()
		read, err := s.Execute(ctx, gsdb.Query(7))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got := read.ReadValues[7]; got != int64(100+i) {
			t.Fatalf("session read %d = %d, want %d", i, got, 100+i)
		}
		if s.Token() < last {
			t.Fatalf("read %d regressed the token: %d < %d", i, s.Token(), last)
		}
		last = s.Token()
	}
}

// TestSessionMonotonicAcrossFailover is the failover half of the session
// contract: when the replica that has been serving the session crashes
// mid-session, the router moves the session to the survivors and the token
// keeps growing — reads never travel backwards in time.
func TestSessionMonotonicAcrossFailover(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(64))
	s := client.NewSession()

	var last uint64
	check := func(stage string, wantVal int64) {
		t.Helper()
		for q := 0; q < 6; q++ {
			read, err := s.Execute(ctx, gsdb.Query(3))
			if err != nil {
				t.Fatalf("%s query %d: %v", stage, q, err)
			}
			if got := read.ReadValues[3]; got != wantVal {
				t.Fatalf("%s query %d read %d, want %d", stage, q, got, wantVal)
			}
			if s.Token() < last {
				t.Fatalf("%s query %d regressed the token: %d < %d", stage, q, s.Token(), last)
			}
			last = s.Token()
		}
	}

	if res, err := s.Execute(ctx, write(3, 30)); err != nil || !res.Committed() {
		t.Fatalf("%+v, %v", res, err)
	}
	check("pre-crash", 30)

	// Take down replica 2 (the survivors suspect it so updates keep
	// committing); the session must route around it without ever handing
	// back a pre-token snapshot.
	client.Crash(2)
	client.Suspect(0, 2)
	client.Suspect(1, 2)
	check("post-crash", 30)

	if res, err := s.Execute(ctx, write(3, 31)); err != nil || !res.Committed() {
		t.Fatalf("post-crash write: %+v, %v", res, err)
	}
	if s.Token() <= last {
		t.Fatalf("post-crash write token %d did not grow past %d", s.Token(), last)
	}
	last = s.Token()
	check("post-crash-write", 31)
}

// TestSessionFlooredReadDoesNotBlock: right after a committed write at least
// one replica (the delegate that answered) has applied the session's token,
// so the freshness-aware router must find it and the floored read must come
// back promptly instead of parking on a lagging replica's freshness gate.
func TestSessionFlooredReadDoesNotBlock(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(4), gsdb.WithItems(64))
	s := client.NewSession()
	for i := 0; i < 20; i++ {
		if res, err := s.Execute(ctx, write(9, int64(i))); err != nil || !res.Committed() {
			t.Fatalf("write %d: %+v, %v", i, res, err)
		}
		readCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
		read, err := s.Execute(readCtx, gsdb.Query(9))
		cancel()
		if err != nil {
			t.Fatalf("floored read %d should have routed to a fresh replica: %v", i, err)
		}
		if read.Freshness < s.Token() {
			t.Fatalf("read %d freshness %d below session floor %d", i, read.Freshness, s.Token())
		}
	}
}

// TestSessionConcurrentUse: a Session is safe for concurrent goroutines; the
// token only ever grows.
func TestSessionConcurrentUse(t *testing.T) {
	ctx := context.Background()
	client := openTest(t, gsdb.WithReplicas(3), gsdb.WithItems(64))
	s := client.NewSession()
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			for i := 0; i < 10; i++ {
				before := s.Token()
				var err error
				if g%2 == 0 {
					_, err = s.Execute(ctx, write(g, int64(i)))
				} else {
					_, err = s.Execute(ctx, gsdb.Query(g))
				}
				if err != nil {
					done <- err
					return
				}
				if s.Token() < before {
					done <- errors.New("session token regressed under concurrency")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
