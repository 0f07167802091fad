package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"groupsafe/gsdb"
	"groupsafe/gsdb/server"
)

// End-to-end tests of the networked stack through the public surface only:
// gsdb/server processes (in-process here; the multi-process form is the chaos
// test) serving gsdb.Dial clients over real TCP sockets.

func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func startCluster(t *testing.T, n int, level gsdb.SafetyLevel) ([]*server.Server, []string) {
	t.Helper()
	peers := freePorts(t, n)
	servers := make([]*server.Server, n)
	clientAddrs := make([]string, n)
	for i := range servers {
		srv, err := server.Start(server.Config{
			ID:                peers[i],
			Members:           peers,
			ClientAddr:        "127.0.0.1:0",
			WALDir:            filepath.Join(t.TempDir(), fmt.Sprintf("r%d", i)),
			Level:             level,
			Items:             64,
			ExecTimeout:       5 * time.Second,
			HeartbeatInterval: 20 * time.Millisecond,
			ResyncInterval:    200 * time.Millisecond,
			Logf:              t.Logf,
		})
		if err != nil {
			t.Fatalf("start server %d: %v", i, err)
		}
		servers[i] = srv
		clientAddrs[i] = srv.ClientAddr()
		t.Cleanup(func() { srv.Close() })
	}
	return servers, clientAddrs
}

func TestDialExecuteAndQuery(t *testing.T) {
	_, addrs := startCluster(t, 3, gsdb.GroupSafe)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	client, err := gsdb.Dial(ctx, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Updates round-robin across replicas.
	var freshness uint64
	for i := 0; i < 9; i++ {
		res, err := client.Execute(ctx, gsdb.Request{Ops: []gsdb.Op{
			{Item: i % 4, Write: true, Value: int64(1000 + i)},
		}})
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if !res.Committed() {
			t.Fatalf("txn %d aborted", i)
		}
		if res.Freshness > freshness {
			freshness = res.Freshness
		}
	}

	// A freshness-floored query reads our own writes from any replica.
	res, err := client.Execute(ctx, gsdb.Query(0, 1, 2, 3), gsdb.WithFreshness(freshness))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadValues[0] != 1008 || res.ReadValues[1] != 1005 {
		t.Fatalf("query read %v, want items 0..3 = 1008,1005,1006,1007", res.ReadValues)
	}

	// Per-transaction safety override rides the wire.
	res, err = client.Execute(ctx, gsdb.Request{Ops: []gsdb.Op{
		{Item: 9, Write: true, Value: 7},
	}}, gsdb.WithSafety(gsdb.VerySafe))
	if err != nil {
		t.Fatal(err)
	}
	if res.Level != gsdb.VerySafe {
		t.Fatalf("override executed at level %v, want very-safe", res.Level)
	}

	// Info reports identity, view and progress.
	info, err := client.Info(ctx, addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(info.ViewMembers) != 3 || info.LastAppliedSeq == 0 || len(info.Items) != 64 {
		t.Fatalf("info = %+v", info)
	}
}

// TestDialComputeRejected: closures cannot cross the network and fail fast
// client-side.
func TestDialComputeRejected(t *testing.T) {
	_, addrs := startCluster(t, 1, gsdb.GroupSafe)
	ctx := context.Background()
	client, err := gsdb.Dial(ctx, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.Execute(ctx, gsdb.Request{
		Compute: func(reads map[int]int64) []gsdb.Op { return nil },
	})
	if !errors.Is(err, gsdb.ErrComputeNotReplicable) {
		t.Fatalf("err = %v", err)
	}
}

// TestDialSurvivesReplicaLoss: with one of three servers gone, a client
// dialled at all three still completes transactions against the majority —
// bounded retry, no hang.
func TestDialSurvivesReplicaLoss(t *testing.T) {
	servers, addrs := startCluster(t, 3, gsdb.GroupSafe)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	client, err := gsdb.Dial(ctx, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Execute(ctx, gsdb.Request{Ops: []gsdb.Op{{Item: 1, Write: true, Value: 1}}}); err != nil {
		t.Fatal(err)
	}

	servers[2].Close()

	// Every one of these may round-robin onto the dead address first; the
	// client must fail over within its retry budget every time.
	for i := 0; i < 6; i++ {
		tctx, tcancel := context.WithTimeout(ctx, 10*time.Second)
		res, err := client.Execute(tctx, gsdb.Request{Ops: []gsdb.Op{
			{Item: 2 + i, Write: true, Value: int64(i)},
		}})
		tcancel()
		if err != nil {
			t.Fatalf("txn %d with one replica down: %v", i, err)
		}
		if !res.Committed() {
			t.Fatalf("txn %d aborted", i)
		}
	}

	// Reads served by survivors, too.
	res, err := client.Execute(ctx, gsdb.Query(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadValues[1] != 1 {
		t.Fatalf("read %v", res.ReadValues)
	}
}

// TestDialErrorIdentityAcrossWire: engine sentinels survive the network, so
// callers' errors.Is logic is transport-agnostic.
func TestDialErrorIdentityAcrossWire(t *testing.T) {
	_, addrs := startCluster(t, 3, gsdb.GroupSafe)
	ctx := context.Background()
	client, err := gsdb.Dial(ctx, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A declared-read-only request carrying a write is rejected server-side;
	// the sentinel must match across the wire.
	_, err = client.Execute(ctx, gsdb.Request{
		ReadOnly: true,
		Ops:      []gsdb.Op{{Item: 1, Write: true, Value: 2}},
	})
	if !errors.Is(err, gsdb.ErrReadOnlyWrites) {
		t.Fatalf("err = %v, want ErrReadOnlyWrites identity", err)
	}

	// A safety override the cluster cannot provide (2-safe without the
	// end-to-end log) is rejected with its sentinel intact.
	_, err = client.Execute(ctx, gsdb.Request{
		Ops: []gsdb.Op{{Item: 1, Write: true, Value: 2}},
	}, gsdb.WithSafety(gsdb.Safety2))
	if !errors.Is(err, gsdb.ErrSafetyUnavailable) {
		t.Fatalf("err = %v, want ErrSafetyUnavailable identity", err)
	}
}

// TestDialSessionReadYourWrites: the Session abstraction behaves identically
// over TCP — the freshness token and floor ride the wire protocol, so every
// session query sees the session's own committed writes no matter which
// server the remote router picks.
func TestDialSessionReadYourWrites(t *testing.T) {
	_, addrs := startCluster(t, 3, gsdb.GroupSafe)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	client, err := gsdb.Dial(ctx, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	s := client.NewSession()
	var last uint64
	for i := 0; i < 6; i++ {
		res, err := s.Execute(ctx, gsdb.Request{Ops: []gsdb.Op{
			{Item: 2, Write: true, Value: int64(200 + i)},
		}})
		if err != nil || !res.Committed() {
			t.Fatalf("write %d: %+v, %v", i, res, err)
		}
		if s.Token() <= last {
			t.Fatalf("write %d: token %d did not grow past %d", i, s.Token(), last)
		}
		last = s.Token()
		read, err := s.Execute(ctx, gsdb.Query(2))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got := read.ReadValues[2]; got != int64(200+i) {
			t.Fatalf("session read %d = %d, want %d", i, got, 200+i)
		}
		if s.Token() < last {
			t.Fatalf("read %d regressed the token: %d < %d", i, s.Token(), last)
		}
		last = s.Token()
	}
}
