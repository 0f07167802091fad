package experiments

import (
	"context"
	"fmt"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/workload"
)

// Table1Row is one row of the paper's Table 1: the classification of safety
// levels by delivery and logging guarantees at client-notification time.
type Table1Row struct {
	Level              core.SafetyLevel
	GuaranteedDeliverd string
	GuaranteedLogged   string
	ToleratedCrashes   string
}

// RunTable1 produces the classification of Table 1 (and the crash-tolerance
// column of Table 2) for a group of n servers.
func RunTable1(n int) []Table1Row {
	rows := make([]Table1Row, 0, len(core.AllLevels()))
	for _, level := range core.AllLevels() {
		tolerated := fmt.Sprintf("%d", level.ToleratedCrashes(n))
		switch level {
		case core.GroupSafe, core.Group1Safe:
			tolerated = fmt.Sprintf("< %d", n)
		case core.Safety2, core.VerySafe:
			tolerated = fmt.Sprintf("%d", n)
		}
		rows = append(rows, Table1Row{
			Level:              level,
			GuaranteedDeliverd: level.GuaranteedDelivered(),
			GuaranteedLogged:   level.GuaranteedLogged(),
			ToleratedCrashes:   tolerated,
		})
	}
	return rows
}

// Table2Row is the operational verification of Table 2: for each safety
// level, is an acknowledged transaction lost after (a) the crash of the
// delegate only, (b) the crash of a minority of servers, (c) the crash of all
// servers with only the non-delegates recovering.
type Table2Row struct {
	Level                core.SafetyLevel
	LostAfterDelegate    bool
	LostAfterMinority    bool
	LostAfterTotalFail   bool
	ExpectedLostDelegate bool
	ExpectedLostTotal    bool
}

// RunTable2 runs the crash-tolerance experiments for every safety level on a
// cluster of n replicas (n >= 3).
func RunTable2(n int) ([]Table2Row, error) {
	if n < 3 {
		n = 3
	}
	rows := make([]Table2Row, 0, len(core.AllLevels()))
	for _, level := range core.AllLevels() {
		row := Table2Row{
			Level:                level,
			ExpectedLostDelegate: level.ToleratedCrashes(n) == 0,
			ExpectedLostTotal:    level.ToleratedCrashes(n) < n,
		}
		lost, err := lostAfterDelegateCrash(level, n)
		if err != nil {
			return nil, fmt.Errorf("table 2, %v, delegate crash: %w", level, err)
		}
		row.LostAfterDelegate = lost

		lost, err = lostAfterMinorityCrash(level, n)
		if err != nil {
			return nil, fmt.Errorf("table 2, %v, minority crash: %w", level, err)
		}
		row.LostAfterMinority = lost

		lost, err = lostAfterTotalFailure(level)
		if err != nil {
			return nil, fmt.Errorf("table 2, %v, total failure: %w", level, err)
		}
		row.LostAfterTotalFail = lost
		rows = append(rows, row)
	}
	return rows, nil
}

// lostAfterDelegateCrash commits one transaction, crashes the delegate
// immediately afterwards (before any lazy propagation), and checks whether
// the remaining, available system still has the transaction.
func lostAfterDelegateCrash(level core.SafetyLevel, n int) (bool, error) {
	cluster, err := core.NewCluster(core.ClusterConfig{
		Replicas:             n,
		Items:                128,
		Level:                level,
		ExecTimeout:          5 * time.Second,
		LazyPropagationDelay: 200 * time.Millisecond,
	})
	if err != nil {
		return false, err
	}
	defer cluster.Close()

	sentBefore, _ := cluster.Network().Stats()
	res, err := cluster.Execute(context.Background(), 0, probeRequest())
	if err != nil {
		return false, err
	}
	if !res.Committed() {
		return false, fmt.Errorf("probe transaction did not commit under %v", level)
	}
	cluster.Crash(0)

	// The available system is everyone but the delegate.
	return !availableSystemHasTransaction(cluster, 1, res, sentBefore), nil
}

// lostAfterMinorityCrash commits one transaction, crashes a minority of the
// servers (not the delegate), and checks the availability of the transaction
// on the remaining servers.
func lostAfterMinorityCrash(level core.SafetyLevel, n int) (bool, error) {
	cluster, err := core.NewCluster(core.ClusterConfig{
		Replicas:    n,
		Items:       128,
		Level:       level,
		ExecTimeout: 5 * time.Second,
	})
	if err != nil {
		return false, err
	}
	defer cluster.Close()

	sentBefore, _ := cluster.Network().Stats()
	res, err := cluster.Execute(context.Background(), 0, probeRequest())
	if err != nil {
		return false, err
	}
	if !res.Committed() {
		return false, fmt.Errorf("probe transaction did not commit under %v", level)
	}
	// Crash a minority of non-delegate servers.
	minority := (n - 1) / 2
	for i := 0; i < minority; i++ {
		cluster.Crash(n - 1 - i)
	}
	return !availableSystemHasTransaction(cluster, 0, res, sentBefore), nil
}

// lostAfterTotalFailure runs the Fig. 5 schedule for the level: every server
// crashes (the non-delegates in the delivered-but-unprocessed window) and
// only the non-delegates recover.
func lostAfterTotalFailure(level core.SafetyLevel) (bool, error) {
	if !level.UsesGroupCommunication() {
		// For the 0-safe and lazy baselines a total failure is at least as bad
		// as a delegate crash; reuse the delegate-crash scenario outcome.
		return lostAfterDelegateCrash(level, 3)
	}
	result, err := runDeliveryCrashSchedule(level)
	if err != nil {
		return false, err
	}
	return result.TransactionLost, nil
}

// availableSystemHasTransaction reports whether a non-crashed replica,
// starting at index from, holds the probe write res committed.  It waits
// until the answer is decided instead of for a fixed time:
//   - at the group levels res.Freshness is the transaction's delivery seq,
//     and once every live replica has applied past it none will install the
//     write later;
//   - at the lazy levels a replica other than the delegate gets the write
//     only from the delegate's propagation, so once no frame has been sent
//     since sentBefore and the delegate has crashed (a crashed endpoint sends
//     nothing), none ever will.  A live lazy delegate installed the write
//     before it answered.
//
// Reaching decideTimeout means the engine broke one of these rules, and the
// transaction counts as not held.
func availableSystemHasTransaction(cluster *core.Cluster, from int, res core.Result, sentBefore uint64) bool {
	for deadline := time.Now().Add(decideTimeout); ; time.Sleep(time.Millisecond) {
		decided := true
		for i := from; i < cluster.Size(); i++ {
			r := cluster.Replica(i)
			if r.Crashed() {
				continue
			}
			if v, err := cluster.Value(i, scenarioItem); err == nil && v == scenarioValue {
				return true
			}
			decided = decided && r.LastAppliedSeq() >= res.Freshness
		}
		if res.Freshness == 0 {
			sent, _ := cluster.Network().Stats()
			decided = sent == sentBefore
		}
		if decided || time.Now().After(deadline) {
			return false
		}
	}
}

// decideTimeout bounds each wait for a decided outcome; only a broken engine
// runs into it.
const decideTimeout = 5 * time.Second

// recoverAndSettle recovers replica i and waits until it has applied every
// message it replayed from its log, so that its state is final once no live
// peer is left to send it anything.  It returns the number of replayed
// messages.
func recoverAndSettle(cluster *core.Cluster, i int) (int, error) {
	before := cluster.Replica(i).Stats().Delivered
	replayed, err := cluster.Recover(i)
	if err != nil {
		return 0, err
	}
	r := cluster.Replica(i)
	for deadline := time.Now().Add(decideTimeout); r.Stats().Delivered < before+uint64(replayed) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return replayed, nil
}

func probeRequest() core.Request {
	return core.Request{Ops: []workload.Op{{Item: scenarioItem, Write: true, Value: scenarioValue}}}
}

// Table3Row compares group-safe and group-1-safe under the three conditions
// of the paper's Table 3.
type Table3Row struct {
	Condition      string
	GroupSafeLost  bool
	Group1SafeLost bool
}

// RunTable3 runs the three columns of Table 3 for both levels.
func RunTable3() ([]Table3Row, error) {
	conditions := []struct {
		name string
		run  func(level core.SafetyLevel) (bool, error)
	}{
		{"group does not fail", table3GroupSurvives},
		{"group fails, delegate recovers", table3GroupFailsDelegateRecovers},
		{"group fails, delegate crashes for good", table3GroupFailsDelegateGone},
	}
	rows := make([]Table3Row, 0, len(conditions))
	for _, cond := range conditions {
		gs, err := cond.run(core.GroupSafe)
		if err != nil {
			return nil, fmt.Errorf("table 3, %s, group-safe: %w", cond.name, err)
		}
		g1s, err := cond.run(core.Group1Safe)
		if err != nil {
			return nil, fmt.Errorf("table 3, %s, group-1-safe: %w", cond.name, err)
		}
		rows = append(rows, Table3Row{Condition: cond.name, GroupSafeLost: gs, Group1SafeLost: g1s})
	}
	return rows, nil
}

// table3GroupSurvives: only a minority of servers crash — neither level loses
// the transaction.
func table3GroupSurvives(level core.SafetyLevel) (bool, error) {
	return lostAfterMinorityCrash(level, 3)
}

// table3GroupFailsDelegateRecovers: every server crashes (the group fails),
// the non-delegates never processed the transaction, and only the delegate
// recovers.  Group-1-safe recovers the transaction from the delegate's forced
// log; group-safe had not forced anything and loses it.
func table3GroupFailsDelegateRecovers(level core.SafetyLevel) (bool, error) {
	cluster, err := core.NewCluster(core.ClusterConfig{
		Replicas:    3,
		Items:       128,
		Level:       level,
		ExecTimeout: 5 * time.Second,
	})
	if err != nil {
		return false, err
	}
	defer cluster.Close()

	for i := 1; i < cluster.Size(); i++ {
		replica := cluster.Replica(i)
		replica.SetDeliverHook(func(uint64) { replica.Crash() })
	}
	res, err := cluster.Execute(context.Background(), 0, probeRequest())
	if err != nil {
		return false, err
	}
	if !res.Committed() {
		return false, fmt.Errorf("probe transaction did not commit under %v", level)
	}
	// Wait for S2 and S3 to go down in their delivery window.
	waitDeadline := time.Now().Add(3 * time.Second)
	for cluster.LiveCount() > 1 {
		if time.Now().After(waitDeadline) {
			return false, fmt.Errorf("non-delegate replicas did not crash in the delivery window")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The whole group is now down (S2, S3 crashed in the delivery window, the
	// delegate crashes too)...
	cluster.Crash(0)
	// ...and only the delegate comes back, with nobody to transfer state
	// from: what it holds is what its own log gave it.
	if _, err := recoverAndSettle(cluster, 0); err != nil {
		return false, err
	}
	v, err := cluster.Value(0, scenarioItem)
	return err != nil || v != scenarioValue, nil
}

// table3GroupFailsDelegateGone is the Fig. 5 schedule: the group fails and the
// delegate never recovers — both levels lose the transaction.
func table3GroupFailsDelegateGone(level core.SafetyLevel) (bool, error) {
	result, err := runDeliveryCrashSchedule(level)
	if err != nil {
		return false, err
	}
	return result.TransactionLost, nil
}
