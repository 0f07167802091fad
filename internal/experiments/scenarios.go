// Package experiments contains the runnable reproductions of the paper's
// tables, figures and claims that are based on the real replication stack
// (internal/core over the in-memory network):
//
//   - Figure 5: the lost-transaction scenario of classical atomic broadcast;
//   - Figure 7: the same schedule with end-to-end atomic broadcast;
//   - Table 1: the classification of safety levels;
//   - Table 2: tolerated crashes per safety level (operational check);
//   - Table 3: group-safe versus group-1-safe loss conditions;
//   - the Fig. 2 vs Fig. 8 response-time breakdown;
//   - the Sect. 6 "disk write vs atomic broadcast" latency comparison;
//   - the Sect. 7 scaling argument (Monte-Carlo model).
//
// The performance evaluation of Fig. 9 lives in internal/simrep, because the
// paper's own numbers come from a discrete-event simulator.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/workload"
)

// scenarioItem and scenarioValue are the probe item and value written by the
// single-transaction failure scenarios.
const (
	scenarioItem  = 42
	scenarioValue = int64(4242)
)

// FailureScenarioResult describes the outcome of the Fig. 5 / Fig. 7 style
// schedules.
type FailureScenarioResult struct {
	// Level is the safety level of the replicated database.
	Level core.SafetyLevel
	// ClientNotified reports whether the client received a commit
	// confirmation before the crashes.
	ClientNotified bool
	// ReplayedMessages is the number of messages replayed by log-based
	// recovery (always 0 for classical atomic broadcast).
	ReplayedMessages int
	// SurvivorsHaveTransaction reports whether, after the recovery of S2 and
	// S3 (the delegate stays down), the transaction's effects are present.
	SurvivorsHaveTransaction bool
	// TransactionLost is the headline outcome: the client was told "committed"
	// but the recovered system does not contain the transaction.
	TransactionLost bool
}

// String renders a one-line summary.
func (r FailureScenarioResult) String() string {
	return fmt.Sprintf("%-12s notified=%v replayed=%d survivorsHaveTxn=%v lost=%v",
		r.Level, r.ClientNotified, r.ReplayedMessages, r.SurvivorsHaveTransaction, r.TransactionLost)
}

// runDeliveryCrashSchedule executes the schedule shared by Fig. 5 and Fig. 7:
//
//  1. the client submits transaction t to the delegate S1;
//  2. every other replica crashes in the window between the delivery of the
//     message carrying t and its processing by the database;
//  3. the delegate confirms the commit to the client and then crashes;
//  4. S2 and S3 recover (the delegate stays down);
//  5. the function reports whether the recovered system contains t.
//
// With classical atomic broadcast (GroupSafe / Group1Safe) the transaction is
// lost (Fig. 5); with end-to-end atomic broadcast (Safety2) it is recovered
// by replaying the logged, unacknowledged message (Fig. 7).
func runDeliveryCrashSchedule(level core.SafetyLevel) (FailureScenarioResult, error) {
	result := FailureScenarioResult{Level: level}
	cluster, err := core.NewCluster(core.ClusterConfig{
		Replicas:    3,
		Items:       128,
		Level:       level,
		ExecTimeout: 2 * time.Second,
	})
	if err != nil {
		return result, err
	}
	defer cluster.Close()

	// S2 and S3 crash in the delivered-but-not-processed window with what
	// they logged so far on disk: nothing about t under classical broadcast,
	// the message under end-to-end broadcast — Fig. 7's premise.  (A crash
	// before the log write reaches the disk externalises nothing either way.)
	for i := 1; i < cluster.Size(); i++ {
		replica := cluster.Replica(i)
		replica.SetDeliverHook(func(uint64) { _ = replica.DB().Flush(); replica.Crash() })
	}

	res, err := cluster.Execute(context.Background(), 0, core.Request{Ops: []workload.Op{
		{Item: scenarioItem, Write: true, Value: scenarioValue},
	}})
	switch {
	case errors.Is(err, core.ErrTimeout):
		// Very-safe replication cannot notify the client while servers are
		// down: the transaction is simply never acknowledged.
		result.ClientNotified = false
	case err != nil:
		return result, fmt.Errorf("execute: %w", err)
	default:
		result.ClientNotified = res.Committed()
	}

	// The non-delegates crash when they process the delivery; wait until all
	// of them have gone down before crashing the delegate, so the schedule is
	// deterministic.
	deadlineCrash := time.Now().Add(3 * time.Second)
	for {
		allDown := true
		for i := 1; i < cluster.Size(); i++ {
			if !cluster.Replica(i).Crashed() {
				allDown = false
			}
		}
		if allDown {
			break
		}
		if time.Now().After(deadlineCrash) {
			return result, fmt.Errorf("non-delegate replicas did not crash in the delivery window")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The delegate crashes after confirming the commit.
	cluster.Crash(0)

	// S2 and S3 recover; the delegate stays down, so no state transfer source
	// containing t exists.  Their crash hooks die with the crashed lives: the
	// recovered replicas process (replayed) deliveries normally.  Once each
	// has applied what it replayed, nothing is left that could bring t.
	for i := 1; i < cluster.Size(); i++ {
		replayed, err := recoverAndSettle(cluster, i)
		if err != nil {
			return result, fmt.Errorf("recover replica %d: %w", i, err)
		}
		result.ReplayedMessages += replayed
	}

	has, err := survivorsHaveTransaction(cluster)
	if err != nil {
		return result, err
	}
	result.SurvivorsHaveTransaction = has
	result.TransactionLost = result.ClientNotified && !has
	return result, nil
}

func survivorsHaveTransaction(cluster *core.Cluster) (bool, error) {
	for i := 1; i < cluster.Size(); i++ {
		v, err := cluster.Value(i, scenarioItem)
		if err != nil {
			return false, err
		}
		if v == scenarioValue {
			return true, nil
		}
	}
	return false, nil
}

// RunFigure5 reproduces the unrecoverable-failure scenario of Fig. 5: the
// replication technique of Fig. 2 (group-1-safe, classical atomic broadcast)
// loses an acknowledged transaction when all servers crash and only the
// non-delegates recover.
func RunFigure5() (FailureScenarioResult, error) {
	return runDeliveryCrashSchedule(core.Group1Safe)
}

// RunFigure7 reproduces the recovery scenario of Fig. 7: the same schedule on
// top of end-to-end atomic broadcast (2-safe replication) replays the logged
// message after recovery, and the transaction survives.
func RunFigure7() (FailureScenarioResult, error) {
	return runDeliveryCrashSchedule(core.Safety2)
}
