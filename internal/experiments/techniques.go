package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/stats"
	"groupsafe/internal/workload"
)

// TechniqueComparisonConfig parameterises the real-stack replication
// technique comparison — the real-system counterpart of the simulator's
// Fig. 9 trio: the same workload is driven through certification-based,
// active and lazy primary-copy clusters, and the client-visible response
// time, the abort rate and the wire cost per transaction are measured.
type TechniqueComparisonConfig struct {
	// Replicas is the cluster size (default 3).
	Replicas int
	// Items is the database size (default 4096).
	Items int
	// Clients is the number of concurrent clients (default 4).
	Clients int
	// TxnsPerClient is the per-client transaction count (default 50).
	TxnsPerClient int
	// Level is the safety criterion for the group-communication techniques
	// (default group-safe; lazy primary-copy is pinned to 1-safe).
	Level core.SafetyLevel
	// ReadFraction is the fraction of transactions that are pure read-only
	// queries (default 0: the classic write-heavy mix).  Queries execute
	// locally at their delegate with zero group communication, so the
	// comparison splits response times and wire cost by class.
	ReadFraction float64
	// QueryKeys is the number of keys read per query (default 0: the
	// transaction-length bounds).
	QueryKeys int
	// DiskSyncDelay emulates the log-force latency (default 1ms).
	DiskSyncDelay time.Duration
	// NetworkLatency emulates the one-way LAN latency (default 70µs).
	NetworkLatency time.Duration
	// Seed seeds the workload and the network (default 1).
	Seed int64
}

func (c *TechniqueComparisonConfig) applyDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Items <= 0 {
		c.Items = 4096
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.TxnsPerClient <= 0 {
		c.TxnsPerClient = 50
	}
	if c.Level == core.Safety0 {
		c.Level = core.GroupSafe
	}
	if c.DiskSyncDelay <= 0 {
		c.DiskSyncDelay = time.Millisecond
	}
	if c.NetworkLatency <= 0 {
		c.NetworkLatency = 70 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// TechniqueResult is one technique's measured behaviour on the shared
// workload.
type TechniqueResult struct {
	Technique core.TechniqueID
	// Level is the canonicalised safety level the cluster actually ran.
	Level core.SafetyLevel
	// Committed and Aborted count client-visible outcomes; AbortRate is
	// Aborted / (Committed + Aborted).  Queries count into Committed (they
	// never abort).
	Committed uint64
	Aborted   uint64
	AbortRate float64
	// Queries and Updates split the completed transactions by class.
	Queries uint64
	Updates uint64
	// ResponseMeanMs / ResponseP95Ms are client-observed response times over
	// all transactions; the Query*/Update* fields split them by class (zero
	// when a class did not occur).
	ResponseMeanMs float64
	ResponseP95Ms  float64
	QueryMeanMs    float64
	QueryP95Ms     float64
	UpdateMeanMs   float64
	UpdateP95Ms    float64
	// MsgsPerTxn is the total number of point-to-point network messages the
	// cluster sent divided by the number of completed transactions — the
	// wire cost the paper's Table 3 compares across techniques.
	MsgsPerTxn float64
	// MsgsPerUpdate is the same wire total divided by update transactions
	// only: queries generate zero group communication, so every message is
	// on the updates' account.
	MsgsPerUpdate float64
	// QueryBroadcasts is the number of atomic broadcasts attributable to
	// read-only transactions — the comparison's own proof of the paper's
	// query/update split; it must be 0 on every technique.
	QueryBroadcasts uint64
	// Consistent reports whether every replica converged to identical
	// committed state after the run.
	Consistent bool
}

// String renders one comparison row.
func (r TechniqueResult) String() string {
	row := fmt.Sprintf("%-14s level=%-12s resp=%6.2f ms  p95=%6.2f ms  abort=%5.1f%%  msgs/txn=%5.1f  consistent=%v",
		r.Technique, r.Level, r.ResponseMeanMs, r.ResponseP95Ms, 100*r.AbortRate, r.MsgsPerTxn, r.Consistent)
	if r.Queries > 0 {
		row += fmt.Sprintf("\n%-14s   queries: %d  resp=%6.2f ms  p95=%6.2f ms  broadcasts=%d   updates: %d  resp=%6.2f ms  p95=%6.2f ms  msgs/update=%5.1f",
			"", r.Queries, r.QueryMeanMs, r.QueryP95Ms, r.QueryBroadcasts, r.Updates, r.UpdateMeanMs, r.UpdateP95Ms, r.MsgsPerUpdate)
	}
	return row
}

// RunTechniqueComparison drives the same seeded workload through a real
// cluster per replication technique and reports response time, abort rate
// and messages per transaction for each.
func RunTechniqueComparison(cfg TechniqueComparisonConfig) ([]TechniqueResult, error) {
	cfg.applyDefaults()
	results := make([]TechniqueResult, 0, len(core.AllTechniques()))
	for _, tech := range core.AllTechniques() {
		r, err := runOneTechnique(cfg, tech)
		if err != nil {
			return nil, fmt.Errorf("experiments: technique %v: %w", tech, err)
		}
		results = append(results, r)
	}
	return results, nil
}

func runOneTechnique(cfg TechniqueComparisonConfig, tech core.TechniqueID) (TechniqueResult, error) {
	level := cfg.Level
	if tech == core.TechLazyPrimary {
		level = core.Safety1Lazy
	}
	cluster, err := core.NewCluster(core.ClusterConfig{
		Replicas:       cfg.Replicas,
		Items:          cfg.Items,
		Level:          level,
		Technique:      tech,
		DiskSyncDelay:  cfg.DiskSyncDelay,
		NetworkLatency: cfg.NetworkLatency,
		ExecTimeout:    30 * time.Second,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return TechniqueResult{}, err
	}
	defer cluster.Close()

	byClass := stats.NewBreakdown()
	sample := stats.NewSample()
	var mu sync.Mutex
	var committed, aborted, queries, updates uint64
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Clients)
	for cl := 0; cl < cfg.Clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Same per-client seeds for every technique: the comparison runs
			// the same transaction streams.
			gen := workload.NewGenerator(workload.Config{
				Items: cfg.Items, MinOps: 4, MaxOps: 8, WriteProb: 0.5,
				ReadFraction: cfg.ReadFraction, QueryMinOps: cfg.QueryKeys, QueryMaxOps: cfg.QueryKeys,
			}, cfg.Seed+int64(cl))
			delegate := cl % cluster.Size()
			for i := 0; i < cfg.TxnsPerClient; i++ {
				req := core.RequestFromWorkload(gen.Next(0, delegate))
				start := time.Now()
				res, err := cluster.Execute(context.Background(), delegate, req)
				elapsed := time.Since(start)
				if err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				sample.AddDuration(elapsed)
				if req.ReadOnly {
					queries++
					byClass.Sample("query").AddDuration(elapsed)
				} else {
					updates++
					byClass.Sample("update").AddDuration(elapsed)
				}
				if res.Committed() {
					committed++
				} else {
					aborted++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return TechniqueResult{}, err
	default:
	}

	waitCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	consistent := cluster.WaitConsistent(waitCtx) == nil
	cancel()
	sent, _ := cluster.Network().Stats()
	var broadcasts uint64
	for _, r := range cluster.Replicas() {
		broadcasts += r.BroadcastStats().Broadcast
	}
	completed := committed + aborted
	result := TechniqueResult{
		Technique:      tech,
		Level:          cluster.Level(),
		Committed:      committed,
		Aborted:        aborted,
		Queries:        queries,
		Updates:        updates,
		ResponseMeanMs: sample.Mean(),
		ResponseP95Ms:  sample.Percentile(95),
		QueryMeanMs:    byClass.Sample("query").Mean(),
		QueryP95Ms:     byClass.Sample("query").Percentile(95),
		UpdateMeanMs:   byClass.Sample("update").Mean(),
		UpdateP95Ms:    byClass.Sample("update").Percentile(95),
		Consistent:     consistent,
	}
	// Every atomic broadcast belongs to an update submission; any excess
	// over the update count would be query traffic — the per-class wire
	// accounting that must stay at zero.
	if broadcasts > updates {
		result.QueryBroadcasts = broadcasts - updates
	}
	if completed > 0 {
		result.AbortRate = float64(aborted) / float64(completed)
		result.MsgsPerTxn = float64(sent) / float64(completed)
	}
	if updates > 0 {
		result.MsgsPerUpdate = float64(sent) / float64(updates)
	}
	return result, nil
}

// FormatTechniqueComparison renders the comparison as a table.
func FormatTechniqueComparison(results []TechniqueResult) string {
	var b strings.Builder
	b.WriteString("Replication technique comparison (same workload, real stack):\n")
	for _, r := range results {
		b.WriteString("  " + r.String() + "\n")
	}
	return b.String()
}
