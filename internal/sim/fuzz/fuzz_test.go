//go:build !simmutation

package fuzz

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sweepConfig is the PR-sized sweep shape: short transactions keep a fully
// partitioned or crashed cluster from stretching the run, and 36 steps are
// enough for several fault/heal cycles.
func sweepConfig(seed int64) Config {
	return Config{Seed: seed, Steps: 36, TxnTimeout: 150 * time.Millisecond}
}

// checkRun runs one scenario through the invariant suite; on a violation it
// shrinks the schedule and writes a replayable trace artifact before failing
// the test with the seed.
func checkRun(t *testing.T, sc *Scenario) {
	t.Helper()
	t.Logf("fuzz: seed=%d level=%s replicas=%d profile=%s",
		sc.Cfg.Seed, sc.Cfg.Level, sc.Cfg.Replicas, sc.Cfg.Profile)
	rec, err := Run(sc)
	if err != nil {
		t.Fatalf("seed %d: run: %v", sc.Cfg.Seed, err)
	}
	violations := CheckAll(rec)
	if len(violations) == 0 {
		return
	}
	res := Shrink(sc, violations, 24)
	path := failureArtifact(t, res.Scenario)
	t.Fatalf("seed %d: %d invariant violation(s):\n%sminimised to %d steps (%d shrink runs), replayable trace: %s",
		sc.Cfg.Seed, len(violations), ReportViolations(res.Violations), len(res.Scenario.Steps), res.Runs, path)
}

// failureArtifact writes a failing trace where CI can pick it up
// ($FUZZ_ARTIFACT_DIR, or the system temp directory).
func failureArtifact(t *testing.T, sc *Scenario) string {
	t.Helper()
	dir := os.Getenv("FUZZ_ARTIFACT_DIR")
	if dir == "" {
		dir = os.TempDir()
	}
	path := filepath.Join(dir, fmt.Sprintf("fuzz-failure-seed%d%s", sc.Cfg.Seed, TraceExt))
	if err := WriteTrace(path, sc); err != nil {
		t.Logf("could not write failure trace: %v", err)
		return "(trace write failed)"
	}
	return path
}

// TestFuzzSweep runs a small seed sweep with fully derived configurations —
// the PR-gate slice of the nightly sweep.  FUZZ_SEED_START/FUZZ_SEED_COUNT
// widen it without a code change.
func TestFuzzSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep skipped in -short mode")
	}
	start, count := int64(1), int64(4)
	if v := os.Getenv("FUZZ_SEED_START"); v != "" {
		fmt.Sscanf(v, "%d", &start)
	}
	if v := os.Getenv("FUZZ_SEED_COUNT"); v != "" {
		fmt.Sscanf(v, "%d", &count)
	}
	for seed := start; seed < start+count; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc, err := Generate(sweepConfig(seed))
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, sc)
		})
	}
}

// TestFuzzPinned pins one configuration per replication path (the
// broadcast levels, the lazy local path, the partitioned router) so every
// path is exercised on every test run regardless of what the derived sweep
// drew.  Every case runs the certification engine, which names the cases.
func TestFuzzPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz sweep skipped in -short mode")
	}
	cases := []struct {
		level, profile string
		seed           int64
		partitions     int
	}{
		{"group-safe", "mixed", 11, 0},
		{"2-safe", "storm", 12, 0},
		{"very-safe", "partition", 13, 0},
		// The lazy 1-safe baseline: local commit, asynchronous
		// propagation, loss excused only when the delegate crashed.
		{"1-safe-lazy", "mixed", 15, 0},
		// Group-safe under the crash storm: sequencer takeovers with nothing
		// forced on the response path.
		{"group-safe", "storm", 17, 0},
		// The partitioned keyspace: cross-partition 2PC under the full fault
		// mix (crashes hit every co-located partition replica at once), at a
		// group-safe level where the coordinator's decide record can die with
		// its holders, and at 2-safe where atomicity has no excuse.
		{"group-safe", "sharded", 18, 2},
		{"2-safe", "sharded", 19, 3},
		// The read scale-out sweep: floored queries dominate while crashes
		// and recoveries move the session routing between replicas — the
		// session-routing invariant (tokens never travel backwards) bites.
		{"group-safe", "readheavy", 20, 0},
	}
	for _, c := range cases {
		c := c
		name := "certification-" + c.level + "-" + c.profile
		if c.partitions > 0 {
			name += fmt.Sprintf("-p%d", c.partitions)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := sweepConfig(c.seed)
			cfg.Level, cfg.Profile = c.level, c.profile
			cfg.Partitions = c.partitions
			sc, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, sc)
		})
	}
}

// TestTraceUnknownHeaderRejected: a header line the codec does not know —
// including the retired "adaptive", "rotate-every" and "technique" lines,
// whatever technique the last names — fails the parse with an error that
// names the line, rather than being skipped.
func TestTraceUnknownHeaderRejected(t *testing.T) {
	sc, err := Generate(sweepConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	data := sc.Marshal()
	for _, unknown := range []string{
		"adaptive true", "rotate-every 5", "frobnicate 1",
		"technique certification", "technique lazy-primary", "technique active", "technique nosuch",
	} {
		_, err := ParseScenario(bytes.Replace(data, []byte("generated "), []byte(unknown+"\ngenerated "), 1))
		if err == nil || !strings.Contains(err.Error(), unknown) {
			t.Fatalf("header line %q: got error %v, want one naming the line", unknown, err)
		}
	}
}

// TestTracePartitionsHeaderRoundTrip pins the trace codec for the partitioned
// keyspace: the partitions header is emitted only when >1 (committed
// unpartitioned corpus traces keep their exact bytes) and survives a
// marshal/parse/marshal cycle.
func TestTracePartitionsHeaderRoundTrip(t *testing.T) {
	cfg := sweepConfig(32)
	cfg.Profile = "sharded"
	sc, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cfg.Partitions < 2 {
		t.Fatalf("sharded profile derived %d partitions, want >= 2", sc.Cfg.Partitions)
	}
	data := sc.Marshal()
	if !bytes.Contains(data, []byte(fmt.Sprintf("partitions %d\n", sc.Cfg.Partitions))) {
		t.Fatalf("partitions header line missing from trace:\n%s", data[:200])
	}
	parsed, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Cfg.Partitions != sc.Cfg.Partitions {
		t.Fatalf("parsed config lost the partition count: %+v", parsed.Cfg)
	}
	if !bytes.Equal(parsed.Marshal(), data) {
		t.Fatal("marshal/parse/marshal is not byte-stable with the partitions header")
	}

	// Unpartitioned configs must not add the header line (corpus stability).
	plain, err := Generate(sweepConfig(32))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain.Marshal(), []byte("partitions")) {
		t.Fatal("unpartitioned config leaked a partitions header line into the trace")
	}
}

// TestSessionRoutingInvariant exercises the checker on synthetic records: a
// floored read travelling backwards is flagged, equal tokens and unfloored
// dips are legal, total-failure runs are skipped, and the partitioned
// comparison only bites where both queries actually read the partition.
func TestSessionRoutingInvariant(t *testing.T) {
	mk := func(floor, fresh uint64) *TxnRec {
		return &TxnRec{Query: true, Acked: true, Floor: floor, Freshness: fresh}
	}
	check := func(rec *RunRecord) []Violation {
		var out []Violation
		checkSessionRouting(rec, &out)
		return out
	}
	bad := &RunRecord{Partitions: 1, Sessions: [][]*TxnRec{{mk(1, 5), mk(5, 5), mk(5, 3)}}}
	if out := check(bad); len(out) != 1 || out[0].Invariant != "session-routing" {
		t.Fatalf("backwards floored read not flagged: %v", out)
	}
	// An unfloored query may legally dip — it accepts any snapshot.
	ok := &RunRecord{Partitions: 1, Sessions: [][]*TxnRec{
		{mk(1, 5), {Query: true, Acked: true, Freshness: 2}, mk(5, 5)},
	}}
	if out := check(ok); len(out) != 0 {
		t.Fatalf("legal run flagged: %v", out)
	}
	// Across a total failure the sequence may restart: skipped, not guessed.
	tf := &RunRecord{Partitions: 1, TotalFailures: []uint64{9},
		Sessions: [][]*TxnRec{{mk(1, 5), mk(5, 3)}}}
	if out := check(tf); len(out) != 0 {
		t.Fatalf("total-failure run not skipped: %v", out)
	}
	// Partitioned: disjoint reads say nothing, a shared partition moving
	// backwards is a violation.
	mkv := func(vec ...uint64) *TxnRec {
		return &TxnRec{Query: true, Acked: true, FloorVec: []uint64{1}, FreshnessVec: vec}
	}
	disjoint := &RunRecord{Partitions: 2, Sessions: [][]*TxnRec{{mkv(5, 0), mkv(0, 7)}}}
	if out := check(disjoint); len(out) != 0 {
		t.Fatalf("disjoint partitioned reads flagged: %v", out)
	}
	shared := &RunRecord{Partitions: 2, Sessions: [][]*TxnRec{{mkv(5, 0), mkv(3, 7)}}}
	if out := check(shared); len(out) != 1 {
		t.Fatalf("backwards partitioned read not flagged: %v", out)
	}
}

// TestCorpusReplay replays every committed trace as a regression case: the
// trace must regenerate byte-identically from its seed (the determinism
// contract, end to end) and the run must satisfy every invariant.
func TestCorpusReplay(t *testing.T) {
	traces, err := CorpusTraces("corpus")
	if err != nil {
		t.Fatalf("corpus directory: %v", err)
	}
	if len(traces) == 0 {
		t.Fatal("corpus is empty — the regression net is gone")
	}
	for _, path := range traces {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			sc, err := ReadTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Generated {
				regen, err := Generate(sc.Cfg)
				if err != nil {
					t.Fatalf("regenerate: %v", err)
				}
				if !bytes.Equal(regen.Marshal(), sc.Marshal()) {
					t.Fatalf("%s does not regenerate byte-identically from seed %d — the generator drifted; regenerate the corpus deliberately or fix the drift", path, sc.Cfg.Seed)
				}
			}
			checkRun(t, sc)
		})
	}
}
