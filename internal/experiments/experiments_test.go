package experiments

import (
	"testing"
	"time"

	"groupsafe/internal/core"
)

func TestFigure5TransactionIsLost(t *testing.T) {
	res, err := RunFigure5()
	if err != nil {
		t.Fatal(err)
	}
	if !res.ClientNotified {
		t.Fatal("the client must have been notified of the commit before the crashes")
	}
	if res.ReplayedMessages != 0 {
		t.Fatalf("classical atomic broadcast must not replay messages, got %d", res.ReplayedMessages)
	}
	if res.SurvivorsHaveTransaction {
		t.Fatal("with classical atomic broadcast the recovered system should NOT have the transaction")
	}
	if !res.TransactionLost {
		t.Fatal("Fig. 5: the acknowledged transaction must be lost")
	}
	if res.String() == "" {
		t.Fatal("String should not be empty")
	}
}

func TestFigure7TransactionSurvives(t *testing.T) {
	res, err := RunFigure7()
	if err != nil {
		t.Fatal(err)
	}
	if !res.ClientNotified {
		t.Fatal("the client must have been notified of the commit before the crashes")
	}
	if res.ReplayedMessages == 0 {
		t.Fatal("end-to-end atomic broadcast must replay the unacknowledged message")
	}
	if !res.SurvivorsHaveTransaction {
		t.Fatal("Fig. 7: after log-based recovery the transaction must be present")
	}
	if res.TransactionLost {
		t.Fatal("Fig. 7: the transaction must not be lost")
	}
}

func TestTable1Classification(t *testing.T) {
	rows := RunTable1(9)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byLevel := map[core.SafetyLevel]Table1Row{}
	for _, r := range rows {
		byLevel[r.Level] = r
	}
	if byLevel[core.GroupSafe].GuaranteedLogged != "none" || byLevel[core.GroupSafe].GuaranteedDeliverd != "all" {
		t.Fatalf("group-safe row = %+v", byLevel[core.GroupSafe])
	}
	if byLevel[core.Safety2].ToleratedCrashes != "9" {
		t.Fatalf("2-safe tolerated crashes = %q", byLevel[core.Safety2].ToleratedCrashes)
	}
	if byLevel[core.GroupSafe].ToleratedCrashes != "< 9" {
		t.Fatalf("group-safe tolerated crashes = %q", byLevel[core.GroupSafe].ToleratedCrashes)
	}
}

func TestTable2CrashTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-injection matrix is slow")
	}
	rows, err := RunTable2(3)
	if err != nil {
		t.Fatal(err)
	}
	byLevel := map[core.SafetyLevel]Table2Row{}
	for _, r := range rows {
		byLevel[r.Level] = r
	}

	// 0-safe and lazy 1-safe lose the transaction as soon as the delegate
	// crashes.
	for _, level := range []core.SafetyLevel{core.Safety0, core.Safety1Lazy} {
		if !byLevel[level].LostAfterDelegate {
			t.Errorf("%v: delegate crash should lose the transaction", level)
		}
	}
	// Group-communication levels survive the delegate crash and any minority
	// crash.
	for _, level := range []core.SafetyLevel{core.GroupSafe, core.Group1Safe, core.Safety2, core.VerySafe} {
		if byLevel[level].LostAfterDelegate {
			t.Errorf("%v: delegate crash must not lose the transaction", level)
		}
		if byLevel[level].LostAfterMinority {
			t.Errorf("%v: minority crash must not lose the transaction", level)
		}
	}
	// Total failure separates group-safety from 2-safety.
	for _, level := range []core.SafetyLevel{core.GroupSafe, core.Group1Safe} {
		if !byLevel[level].LostAfterTotalFail {
			t.Errorf("%v: total failure (delegate never recovers) should lose the transaction", level)
		}
	}
	for _, level := range []core.SafetyLevel{core.Safety2, core.VerySafe} {
		if byLevel[level].LostAfterTotalFail {
			t.Errorf("%v: total failure must not lose the transaction", level)
		}
	}
	// The measured outcomes match the paper's claims encoded in SafetyLevel.
	for _, r := range rows {
		if r.LostAfterDelegate != r.ExpectedLostDelegate {
			t.Errorf("%v: delegate-crash outcome %v does not match Table 2 expectation %v",
				r.Level, r.LostAfterDelegate, r.ExpectedLostDelegate)
		}
		if r.LostAfterTotalFail != r.ExpectedLostTotal {
			t.Errorf("%v: total-failure outcome %v does not match Table 2 expectation %v",
				r.Level, r.LostAfterTotalFail, r.ExpectedLostTotal)
		}
	}
}

func TestTable3LossConditions(t *testing.T) {
	if testing.Short() {
		t.Skip("crash-injection matrix is slow")
	}
	rows, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Column 1: the group does not fail — neither level loses transactions.
	if rows[0].GroupSafeLost || rows[0].Group1SafeLost {
		t.Errorf("no loss expected when the group survives: %+v", rows[0])
	}
	// Column 2: the group fails but the delegate recovers — only group-safe
	// can lose the transaction (group-1-safe has it on the delegate's disk).
	if !rows[1].GroupSafeLost {
		t.Errorf("group-safe should lose the transaction when the group fails: %+v", rows[1])
	}
	if rows[1].Group1SafeLost {
		t.Errorf("group-1-safe should keep the transaction on the delegate's log: %+v", rows[1])
	}
	// Column 3: the group fails and the delegate never recovers — both lose.
	if !rows[2].GroupSafeLost || !rows[2].Group1SafeLost {
		t.Errorf("both levels should lose the transaction: %+v", rows[2])
	}
}

func TestFig2VsFig8Trace(t *testing.T) {
	res, err := RunFig2VsFig8Trace(20*time.Millisecond, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Group1SafeResponse < 15*time.Millisecond {
		t.Fatalf("group-1-safe response %v should include the %v disk force", res.Group1SafeResponse, res.DiskSyncDelay)
	}
	if res.GroupSafeResponse >= res.Group1SafeResponse {
		t.Fatalf("group-safe (%v) should respond faster than group-1-safe (%v)",
			res.GroupSafeResponse, res.Group1SafeResponse)
	}
	if res.ResponseTimeSavings < 10*time.Millisecond {
		t.Fatalf("savings %v should be roughly the disk-force latency", res.ResponseTimeSavings)
	}
}

func TestDiskVsBroadcast(t *testing.T) {
	res, err := RunDiskVsBroadcast(8*time.Millisecond, 70*time.Microsecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BroadcastCheaper {
		t.Fatalf("an atomic broadcast (%v) should be cheaper than a disk force (%v)",
			res.AtomicBroadcast, res.DiskForce)
	}
	if res.Ratio <= 1 {
		t.Fatalf("ratio = %v, want > 1", res.Ratio)
	}
}

func TestSection7Scaling(t *testing.T) {
	points := RunSection7Scaling(ScalingConfig{MinServers: 3, MaxServers: 15, Trials: 5000})
	if len(points) != 13 {
		t.Fatalf("points = %d", len(points))
	}
	first, last := points[0], points[len(points)-1]
	if last.LazyViolationProb <= first.LazyViolationProb {
		t.Fatalf("lazy violation probability should grow with n: %v -> %v",
			first.LazyViolationProb, last.LazyViolationProb)
	}
	if last.GroupSafeViolateProb >= first.GroupSafeViolateProb {
		t.Fatalf("group-safe violation probability should shrink with n: %v -> %v",
			first.GroupSafeViolateProb, last.GroupSafeViolateProb)
	}
	for _, p := range points {
		if p.LazyViolationProb < 0 || p.LazyViolationProb > 1 || p.GroupSafeViolateProb < 0 || p.GroupSafeViolateProb > 1 {
			t.Fatalf("probabilities out of range at n=%d: %+v", p.Servers, p)
		}
	}
}

func TestScalingConfigDefaults(t *testing.T) {
	cfg := ScalingConfig{}
	cfg.applyDefaults()
	if cfg.MinServers != 3 || cfg.MaxServers != 15 || cfg.Trials != 20000 {
		t.Fatalf("defaults = %+v", cfg)
	}
}
