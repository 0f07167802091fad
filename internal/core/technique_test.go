package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestTechniqueParseRoundTrip(t *testing.T) {
	for _, id := range AllTechniques() {
		got, err := ParseTechnique(id.String())
		if err != nil || got != id {
			t.Fatalf("round trip %v: got %v, %v", id, got, err)
		}
	}
	for _, name := range []string{"weak-voting", "active"} {
		if _, err := ParseTechnique(name); err == nil {
			t.Fatalf("unknown technique %q should not parse", name)
		}
	}
}

func TestTechniqueLevelCanonicalisation(t *testing.T) {
	// Certification runs every level unchanged; lazy primary-copy is pinned
	// to 1-safe-lazy and rejects the group-communication levels.
	for _, level := range AllLevels() {
		if got, err := CanonicalLevel(TechCertification, level); err != nil || got != level {
			t.Fatalf("certification + %v = %v, %v; want it unchanged", level, got, err)
		}
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

// TestTechniquesConvergeUnderConflicts runs every technique with a
// concurrent conflicting workload and requires all replicas of each cluster
// to converge to identical state.
func TestTechniquesConvergeUnderConflicts(t *testing.T) {
	for _, tech := range AllTechniques() {
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
