//go:build simmutation

package fuzz

import (
	"testing"
	"time"
)

// TestMutationSelfTest proves the harness has teeth.  Under -tags simmutation
// the engine deliberately skips the 2-safe commit force
// (core/mutation_simmutation.go): a 2-safe transaction is acknowledged while
// its commit record is still volatile, so a total failure loses it — exactly
// the failure 2-safety exists to rule out.  The fuzzer, pinned to
// 2-safe with the storm profile (whose tail is a drained
// total failure), must observe an invariant violation within a bounded seed
// sweep.  If this test ever fails, the invariant suite has gone blind.
func TestMutationSelfTest(t *testing.T) {
	const maxSeeds = 200
	for seed := int64(1); seed <= maxSeeds; seed++ {
		sc, err := Generate(Config{
			Seed:       seed,
			Level:      "2-safe",
			Profile:    "storm",
			Steps:      28,
			TxnTimeout: 150 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if violations := CheckAll(rec); len(violations) > 0 {
			t.Logf("mutation caught at seed %d after %d run(s):\n%s", seed, seed, ReportViolations(violations))
			return
		}
	}
	t.Fatalf("planted 2-safe durability bug survived %d seeds — the invariant suite is blind", maxSeeds)
}
