package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"groupsafe/internal/workload"
)

// techniquesUnderTest returns the techniques the heavy property tests should
// exercise.  CI sets GSDB_TECHNIQUE (comma-separated names) to run the
// race-enabled suite once per technique; locally the default covers all of
// them in one run.
func techniquesUnderTest(t *testing.T) []TechniqueID {
	env := os.Getenv("GSDB_TECHNIQUE")
	if env == "" {
		return AllTechniques()
	}
	var out []TechniqueID
	for _, tok := range strings.Split(env, ",") {
		id, err := ParseTechnique(strings.TrimSpace(tok))
		if err != nil {
			t.Fatalf("GSDB_TECHNIQUE: %v", err)
		}
		out = append(out, id)
	}
	return out
}

func TestTechniqueParseRoundTrip(t *testing.T) {
	for _, id := range AllTechniques() {
		got, err := ParseTechnique(id.String())
		if err != nil || got != id {
			t.Fatalf("round trip %v: got %v, %v", id, got, err)
		}
	}
	if _, err := ParseTechnique("weak-voting"); err == nil {
		t.Fatal("unknown technique should not parse")
	}
}

func TestTechniqueLevelCanonicalisation(t *testing.T) {
	// Active replication promotes the zero level to group-safe and rejects
	// the lazy level; lazy primary-copy is pinned to 1-safe-lazy and rejects
	// the group-communication levels.
	c, err := NewCluster(ClusterConfig{Replicas: 3, Items: 64, Technique: TechActive})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Replica(0).Level(); got != GroupSafe {
		t.Fatalf("active + zero level = %v, want group-safe", got)
	}
	if _, err := NewCluster(ClusterConfig{Replicas: 3, Items: 64, Technique: TechActive, Level: Safety1Lazy}); err == nil {
		t.Fatal("active + 1-safe-lazy should be rejected")
	}

	lp, err := NewCluster(ClusterConfig{Replicas: 3, Items: 64, Technique: TechLazyPrimary})
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Close()
	if got := lp.Replica(0).Level(); got != Safety1Lazy {
		t.Fatalf("lazy-primary level = %v, want 1-safe-lazy", got)
	}
	if _, err := NewCluster(ClusterConfig{Replicas: 3, Items: 64, Technique: TechLazyPrimary, Level: GroupSafe}); err == nil {
		t.Fatal("lazy-primary + group-safe should be rejected")
	}
}

func TestOpsPayloadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rec opsRecord // reused like the apply loop's arena
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(16)
		ops := make([]workload.Op, n)
		for i := range ops {
			ops[i] = workload.Op{Item: rng.Intn(10000), Write: rng.Intn(2) == 0}
			if ops[i].Write {
				ops[i].Value = rng.Int63() - rng.Int63()
			}
		}
		id := uint64(rng.Int63())
		level := AllLevels()[rng.Intn(len(AllLevels()))]
		payload := encodeOpsPayload(id, "s2", level, ops)
		if err := decodeOpsRecord(payload, &rec); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if rec.TxnID != id || rec.Delegate != "s2" || rec.Level != level || len(rec.Ops) != n {
			t.Fatalf("trial %d: header mismatch: %+v", trial, rec)
		}
		for i, op := range rec.Ops {
			if op != ops[i] {
				t.Fatalf("trial %d: op %d = %+v, want %+v", trial, i, op, ops[i])
			}
		}
		// Truncations must fail, not decode garbage.
		for cut := 0; cut < len(payload); cut++ {
			if err := decodeOpsRecord(payload[:cut], &rec); err == nil {
				t.Fatalf("trial %d: truncation at %d decoded", trial, cut)
			}
		}
	}
}

func TestActiveReplicationCommitsWithoutAborts(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		Replicas:    3,
		Items:       128,
		Technique:   TechActive,
		ExecTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Heavily conflicting concurrent workload: certification would abort
	// some of these; active replication must commit every single one.
	commits, aborts := runConcurrent(t, c, 0, 6, 20, 16)
	if aborts != 0 {
		t.Fatalf("active replication aborted %d transactions", aborts)
	}
	if commits != 6*20 {
		t.Fatalf("committed %d, want %d", commits, 6*20)
	}
	if !waitConsistent(c, 5*time.Second) {
		t.Fatal("active replicas did not converge")
	}
}

func TestActiveReplicationReadsAtSerialisationPoint(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Replicas: 3, Items: 64, Technique: TechActive, ExecTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Execute(context.Background(), 0, writeReq(0, 9, 90)); err != nil {
		t.Fatal(err)
	}
	// A read-then-write transaction must observe the committed value at its
	// delivery position (read-your-writes included).
	res, err := c.Execute(context.Background(), 1, Request{Ops: []workload.Op{
		{Item: 9},
		{Item: 10, Write: true, Value: 100},
		{Item: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed() || res.ReadValues[9] != 90 || res.ReadValues[10] != 100 {
		t.Fatalf("result = %+v", res)
	}

	// Compute hooks cannot travel in a broadcast.
	_, err = c.Execute(context.Background(), 0, Request{
		Ops:     []workload.Op{{Item: 9}},
		Compute: func(map[int]int64) []workload.Op { return nil },
	})
	if !errors.Is(err, ErrComputeNotReplicable) {
		t.Fatalf("compute under active replication: %v", err)
	}
}

func TestLazyPrimaryRoutesUpdatesToPrimary(t *testing.T) {
	c, err := NewCluster(ClusterConfig{Replicas: 3, Items: 64, Technique: TechLazyPrimary, ExecTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Direct submission of an update to a secondary is refused...
	if _, err := c.Replica(1).Execute(context.Background(), writeReq(0, 3, 33)); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("update at secondary: %v", err)
	}
	// ...but the cluster driver transparently routes it to the primary.
	res, err := c.Execute(context.Background(), 1, writeReq(0, 3, 33))
	if err != nil || !res.Committed() {
		t.Fatalf("routed update failed: %+v, %v", res, err)
	}
	if res.Delegate != "s1" {
		t.Fatalf("update executed at %s, want primary s1", res.Delegate)
	}
	// Read-only transactions stay at their delegate.
	if !waitConsistent(c, 5*time.Second) {
		t.Fatal("secondaries did not receive the lazy write set")
	}
	rres, err := c.Replica(2).Execute(context.Background(), readReq(3))
	if err != nil || rres.ReadValues[3] != 33 {
		t.Fatalf("secondary read = %+v, %v", rres, err)
	}
	if rres.Delegate != "s3" {
		t.Fatalf("read-only executed at %s, want s3", rres.Delegate)
	}
}

// conflictFreeWorkload builds per-client transaction streams over disjoint
// item partitions: no two clients touch the same item, so certification
// commits everything and the final store state is independent of the
// interleaving — the precondition for comparing techniques byte for byte.
func conflictFreeWorkload(clients, txnsPerClient, itemsPerClient int, seed int64) [][]Request {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Request, clients)
	for cl := 0; cl < clients; cl++ {
		base := cl * itemsPerClient
		reqs := make([]Request, txnsPerClient)
		for i := range reqs {
			nOps := 2 + rng.Intn(4)
			ops := make([]workload.Op, nOps)
			for j := range ops {
				item := base + rng.Intn(itemsPerClient)
				if rng.Intn(2) == 0 {
					ops[j] = workload.Op{Item: item, Write: true, Value: rng.Int63n(1 << 30)}
				} else {
					ops[j] = workload.Op{Item: item}
				}
			}
			// At least one write so the transaction is broadcast.
			ops[0].Write = true
			ops[0].Value = rng.Int63n(1 << 30)
			reqs[i] = Request{Ops: ops}
		}
		out[cl] = reqs
	}
	return out
}

// runRequests drives the per-client request streams concurrently, each
// client bound to a delegate round-robin.
func runRequests(t *testing.T, c *Cluster, streams [][]Request) {
	t.Helper()
	var wg sync.WaitGroup
	errCh := make(chan error, len(streams))
	for cl, reqs := range streams {
		cl, reqs := cl, reqs
		wg.Add(1)
		go func() {
			defer wg.Done()
			delegate := cl % c.Size()
			for _, req := range reqs {
				res, err := c.Execute(context.Background(), delegate, req)
				if err != nil {
					errCh <- err
					return
				}
				if !res.Committed() {
					errCh <- fmt.Errorf("conflict-free transaction aborted under %v", c.Technique())
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestCertAndActiveReachSameStateOnConflictFreeWorkload is the
// cross-technique equivalence property: on a workload without inter-client
// conflicts, the certification-based and active techniques must drive every
// replica of their clusters to the same committed store state (values AND
// versions), because both reduce to "apply each client's writes in client
// order".
func TestCertAndActiveReachSameStateOnConflictFreeWorkload(t *testing.T) {
	const clients, txns, itemsPer = 4, 15, 16
	items := clients * itemsPer
	streams := conflictFreeWorkload(clients, txns, itemsPer, 11)

	build := func(tech TechniqueID) *Cluster {
		c, err := NewCluster(ClusterConfig{
			Replicas:    3,
			Items:       items,
			Level:       GroupSafe,
			Technique:   tech,
			ExecTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	cert := build(TechCertification)
	active := build(TechActive)
	runRequests(t, cert, streams)
	runRequests(t, active, streams)
	if !waitConsistent(cert, 5*time.Second) || !waitConsistent(active, 5*time.Second) {
		t.Fatal("clusters did not converge internally")
	}
	if !cert.Replica(0).DB().Store().Equal(active.Replica(0).DB().Store()) {
		t.Fatal("certification and active replication diverged on a conflict-free workload")
	}
}

// TestTechniquesConvergeUnderConflicts runs every technique with a
// concurrent conflicting workload and requires all replicas of each cluster
// to converge to identical state.
func TestTechniquesConvergeUnderConflicts(t *testing.T) {
	for _, tech := range techniquesUnderTest(t) {
		t.Run(tech.String(), func(t *testing.T) {
			level := GroupSafe
			if tech == TechLazyPrimary {
				level = Safety1Lazy
			}
			c, err := NewCluster(ClusterConfig{
				Replicas:    3,
				Items:       96,
				Level:       level,
				Technique:   tech,
				ExecTimeout: 10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			commits, _ := runConcurrent(t, c, 0, 6, 25, 96)
			if commits == 0 {
				t.Fatal("no transaction committed")
			}
			if !waitConsistent(c, 5*time.Second) {
				t.Fatalf("%v: replicas diverged", tech)
			}
		})
	}
}
