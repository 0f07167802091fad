package simrep

import (
	"testing"
	"time"

	"groupsafe/internal/core"
)

// TestBatchedSimulationCompletes runs the simulator with the batched
// broadcast stage and checks that transactions flow through it: the batcher
// must neither deadlock nor drop transactions, and the measured behaviour
// must stay in the same regime as the unbatched run.
func TestBatchedSimulationCompletes(t *testing.T) {
	base := DefaultConfig()
	base.Duration = 10 * time.Second

	unbatched, err := Run(base, core.GroupSafe, 30)
	if err != nil {
		t.Fatal(err)
	}

	batched := base
	batched.BatchSize = 8
	got, err := Run(batched, core.GroupSafe, 30)
	if err != nil {
		t.Fatal(err)
	}

	if got.Completed == 0 || got.Committed == 0 {
		t.Fatalf("batched run completed nothing: %+v", got)
	}
	// Every generated transaction terminates: throughput tracks the offered
	// load in both runs (within slack for warm-up edges).
	if got.ThroughputTPS < 0.7*unbatched.ThroughputTPS {
		t.Fatalf("batched throughput %.1f tps collapsed vs unbatched %.1f tps", got.ThroughputTPS, unbatched.ThroughputTPS)
	}
	// Batching shares network rounds between transactions; the response time
	// may shift but must stay the same order of magnitude.
	if got.ResponseMeanMs > 5*unbatched.ResponseMeanMs+5 {
		t.Fatalf("batched response %.1f ms blew up vs unbatched %.1f ms", got.ResponseMeanMs, unbatched.ResponseMeanMs)
	}
}
