// Package groupsafe holds the benchmarks that regenerate the tables and
// figures of the paper's evaluation, and nothing else: Fig. 9 and its
// extensions, Tables 1-3, the Fig. 5 / Fig. 7 failure schedules, the
// Fig. 2 vs Fig. 8 breakdown, the Sect. 6 disk-versus-broadcast comparison
// and the Sect. 7 scaling argument.  The system itself is measured by one
// harness, bench/ (bash bench/run.sh, see bench/README.md and BENCH.md).
//
// Run them with:
//
//	go test -run '^$' -bench . -benchtime 1x .
//
// Each benchmark prints the reproduced data as b.ReportMetric custom metrics
// and (for the figures) relies on the cmd/gsdb-sim and cmd/gsdb-safety tools
// for the full human-readable tables.
package groupsafe

import (
	"strconv"
	"testing"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/experiments"
	"groupsafe/internal/simrep"
)

// benchSimConfig keeps the simulated runs short enough for a benchmark
// iteration while preserving the Table 4 resource model.
func benchSimConfig() simrep.Config {
	cfg := simrep.DefaultConfig()
	cfg.Duration = 20 * time.Second
	return cfg
}

// benchmarkFigure9Point runs one (technique, load) point of Fig. 9 per
// iteration and reports the measured response time and abort rate.
func benchmarkFigure9Point(b *testing.B, level core.SafetyLevel, load float64) {
	b.Helper()
	cfg := benchSimConfig()
	var last simrep.Result
	for i := 0; i < b.N; i++ {
		r, err := simrep.Run(cfg, level, load)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ResponseMeanMs, "response-ms")
	b.ReportMetric(last.ResponseP95Ms, "p95-ms")
	b.ReportMetric(100*last.AbortRate, "abort-%")
	b.ReportMetric(last.ThroughputTPS, "tps")
}

// BenchmarkFigure9 regenerates the three curves of Fig. 9 (response time vs
// load for group-safe, lazy/1-safe and group-1-safe replication) at the left
// edge, the middle and the right edge of the paper's load axis.
func BenchmarkFigure9(b *testing.B) {
	for _, level := range simrep.Figure9Levels() {
		for _, load := range []float64{20, 30, 40} {
			b.Run(level.String()+"/load-"+strconv.Itoa(int(load)), func(b *testing.B) {
				benchmarkFigure9Point(b, level, load)
			})
		}
	}
}

// BenchmarkFigure9Extensions covers the levels the paper discusses but does
// not plot (0-safe, 2-safe, very-safe) as an ablation of the safety/latency
// trade-off.
func BenchmarkFigure9Extensions(b *testing.B) {
	for _, level := range []core.SafetyLevel{core.Safety0, core.Safety2, core.VerySafe} {
		b.Run(level.String(), func(b *testing.B) {
			benchmarkFigure9Point(b, level, 20)
		})
	}
}

// BenchmarkTable1SafetyMatrix regenerates the Table 1 classification.
func BenchmarkTable1SafetyMatrix(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunTable1(9)
	}
	b.ReportMetric(float64(len(rows)), "levels")
}

// BenchmarkTable2CrashTolerance runs the operational crash-tolerance matrix
// of Table 2 (delegate crash, minority crash, total failure for every level).
func BenchmarkTable2CrashTolerance(b *testing.B) {
	lost := 0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2(3)
		if err != nil {
			b.Fatal(err)
		}
		lost = 0
		for _, r := range rows {
			if r.LostAfterDelegate {
				lost++
			}
			if r.LostAfterTotalFail {
				lost++
			}
		}
	}
	b.ReportMetric(float64(lost), "loss-scenarios")
}

// BenchmarkTable3LossConditions runs the group-safe versus group-1-safe loss
// matrix of Table 3.
func BenchmarkTable3LossConditions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5LostTransaction replays the unrecoverable-failure scenario
// of Fig. 5 (classical atomic broadcast loses an acknowledged transaction).
func BenchmarkFigure5LostTransaction(b *testing.B) {
	lost := 0.0
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5()
		if err != nil {
			b.Fatal(err)
		}
		if res.TransactionLost {
			lost = 1
		}
	}
	b.ReportMetric(lost, "transaction-lost")
}

// BenchmarkFigure7EndToEndRecovery replays the same schedule on end-to-end
// atomic broadcast (the transaction survives).
func BenchmarkFigure7EndToEndRecovery(b *testing.B) {
	lost := 0.0
	replayed := 0.0
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7()
		if err != nil {
			b.Fatal(err)
		}
		if res.TransactionLost {
			lost = 1
		}
		replayed = float64(res.ReplayedMessages)
	}
	b.ReportMetric(lost, "transaction-lost")
	b.ReportMetric(replayed, "replayed-msgs")
}

// BenchmarkFigure2vs8Breakdown measures the single-transaction response-time
// difference between the Fig. 2 (group-1-safe) and Fig. 8 (group-safe)
// protocol variants on the real stack.
func BenchmarkFigure2vs8Breakdown(b *testing.B) {
	var res experiments.TraceResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig2VsFig8Trace(8*time.Millisecond, 70*time.Microsecond, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Group1SafeResponse)/1e6, "group1safe-ms")
	b.ReportMetric(float64(res.GroupSafeResponse)/1e6, "groupsafe-ms")
	b.ReportMetric(float64(res.ResponseTimeSavings)/1e6, "savings-ms")
}

// BenchmarkDiskVsBroadcast quantifies the Sect. 6 claim that an atomic
// broadcast (~1 ms) is much cheaper than a disk force (~8 ms).
func BenchmarkDiskVsBroadcast(b *testing.B) {
	var res experiments.DiskVsBroadcastResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunDiskVsBroadcast(8*time.Millisecond, 70*time.Microsecond, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DiskForce)/1e6, "disk-ms")
	b.ReportMetric(float64(res.AtomicBroadcast)/1e6, "abcast-ms")
	b.ReportMetric(res.Ratio, "ratio")
}

// BenchmarkSection7Scaling evaluates the Sect. 7 argument (ACID-violation
// probability versus the number of servers for lazy and group-safe).
func BenchmarkSection7Scaling(b *testing.B) {
	var points []experiments.ScalingPoint
	for i := 0; i < b.N; i++ {
		points = experiments.RunSection7Scaling(experiments.ScalingConfig{Trials: 10000})
	}
	first, last := points[0], points[len(points)-1]
	b.ReportMetric(last.LazyViolationProb-first.LazyViolationProb, "lazy-growth")
	b.ReportMetric(first.GroupSafeViolateProb-last.GroupSafeViolateProb, "groupsafe-drop")
}
