package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	rmetrics "runtime/metrics"
	"time"

	"groupsafe/internal/gcs/abcast"
)

const (
	// setups is how many times a timed run sets the deployment up; setup_s is
	// the median.
	setups = 5
	// timedPhases is how many of those deployments the closed loop is
	// measured on, for an equal share of --seconds each.
	timedPhases = 4
	// warmup runs the closed loop untimed so connections and caches are hot
	// before the first timed operation.
	warmup = time.Second
)

// runConfig is one invocation: one workload, one seed, traced or not.
type runConfig struct {
	def     *workloadDef
	seed    int64
	seconds time.Duration // measured time, split between the phases
	traced  bool
	spans   string // traced runs: file the spans are written to ("" = none)
	scale   int    // multiplier on the probes' iteration counts
	tmp     string // directory for write-ahead logs; created on demand
}

// runResult is what one invocation reports.
type runResult struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// setUp builds the deployment, writes every item once and waits until the
// replicas agree: everything a client waits for before its first request.
func setUp(ctx context.Context, cfg *runConfig, tr *tracer) (*driver, time.Duration, error) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	dep, err := cfg.def.deploy(ctx, cfg.tmp, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("deploy: %w", err)
	}
	d := newDriver(cfg.def, dep, cfg.seed)
	if err := d.populate(ctx); err != nil {
		dep.close()
		return nil, 0, err
	}
	if _, err := dep.values(ctx); err != nil {
		dep.close()
		return nil, 0, fmt.Errorf("set-up state: %w", err)
	}
	return d, time.Since(start), nil
}

// run executes one invocation.  An error means the run could not measure;
// a run that measured but failed its output checks returns Correct=false.
func run(ctx context.Context, cfg *runConfig) (*runResult, error) {
	res := &runResult{Workload: cfg.def.name, Seed: cfg.seed, Seconds: cfg.seconds.Seconds()}
	var m *metrics
	var err error
	if cfg.traced {
		res.Trace = 1
		m = newMetrics(perLayer)
		err = runTraced(ctx, cfg, res, m)
	} else {
		m = newMetrics(endToEnd)
		err = runTimed(ctx, cfg, res, m)
	}
	if err != nil {
		return nil, err
	}
	if err := m.complete(); err != nil {
		return nil, err
	}
	res.Metrics = m.values
	return res, nil
}

// finish runs the output checks on one deployment and folds its phases'
// counts into res, which starts out correct.
func finish(ctx context.Context, d *driver, res *runResult, phases ...*phase) {
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.firstErr != nil && res.Error == "" {
			res.Error = p.firstErr.Error()
		}
	}
	if err := d.check(ctx); err != nil {
		res.Correct = false
		res.Error = err.Error()
	}
}

// runTimed is the untraced run behind the end-to-end metrics: the deployment
// is set up setups times, and the closed loop is measured on the last
// timedPhases of them, a fresh one each, so that no phase inherits another's
// heap.
func runTimed(ctx context.Context, cfg *runConfig, res *runResult, m *metrics) error {
	times := make([]float64, 0, setups)
	all := &phase{}
	res.Correct = true
	for k := 0; k < setups; k++ {
		d, took, err := setUp(ctx, cfg, nil)
		if err != nil {
			return err
		}
		times = append(times, took.Seconds())
		if k >= setups-timedPhases {
			runClosed(ctx, cfg.def.workers, min(warmup, cfg.seconds), d.op)
			closed := runClosed(ctx, cfg.def.workers, cfg.seconds/timedPhases, d.op)
			finish(ctx, d, res, closed)
			all.length += closed.length
			all.samples = append(all.samples, closed.samples...)
		}
		d.dep.close()
		runtime.GC() // this deployment's heap is not the next one's cost
	}
	m.set("setup_s", median(times), setups)
	m.set("tps", all.tps(), len(all.samples))
	m.set("p50_us", percentile(all.latencies(), 0.5), len(all.samples))
	return nil
}

// gapStream seeds the open loop's Poisson gaps.
func gapStream(cfg *runConfig) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(cfg.seed, cfg.def.stream, -1)))
}

// onSchedule reports whether the open-loop generator kept its schedule well
// enough for the latencies timed from it to mean anything: its median
// lateness is within a tenth of the median latency, or below a microsecond,
// which is what reading the clock and handing the operation over cost.
func onSchedule(open *phase, sortedLat []time.Duration) bool {
	if len(open.late) == 0 || len(sortedLat) == 0 {
		return false
	}
	late := percentile(open.late, 0.5)
	return late <= 1 || late <= percentile(sortedLat, 0.5)/10
}

// counters are the layer counters read at the boundaries of a phase.
type counters struct {
	ab                 abcast.Stats
	committed, aborted uint64
	sent, dropped      uint64
	pruned, writes     uint64
	walBytes           int64
	mallocs            uint64
	gcCPU, totalCPU    float64
}

func readCounters(dep *deployment) counters {
	var c counters
	for _, r := range dep.replicas {
		st := r.BroadcastStats()
		c.ab.Broadcast += st.Broadcast
		c.ab.Ordered += st.Ordered
		c.ab.MsgsSent += st.MsgsSent
		c.ab.DataBatches += st.DataBatches
		c.ab.AckSends += st.AckSends
		c.ab.NacksSent += st.NacksSent
		c.ab.Retransmits += st.Retransmits
		c.ab.EpochJumps += st.EpochJumps
		rs := r.Stats()
		c.committed += rs.Committed - rs.Queries
		c.aborted += rs.Aborted
		c.pruned += r.DB().Store().PrunedVersions()
		c.writes += r.DB().CommittedWriteCount()
	}
	c.sent, c.dropped = dep.netStats()
	if dep.walDir != "" {
		// A file that vanishes mid-walk is not an error worth failing on.
		_ = filepath.WalkDir(dep.walDir, func(_ string, e fs.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				if info, err := e.Info(); err == nil {
					c.walBytes += info.Size()
				}
			}
			return nil
		})
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	samples := []rmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rmetrics.Read(samples)
	c.gcCPU, c.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	return c
}

// runTraced is the traced run behind the per-layer metrics: the workload on a
// deployment whose replicas the benchmark can reach, then, with that
// deployment closed and collected, the isolated layer probes.
func runTraced(ctx context.Context, cfg *runConfig, res *runResult, m *metrics) error {
	if err := traceWorkload(ctx, cfg, res, m); err != nil {
		return err
	}
	runtime.GC()
	for _, p := range probes() {
		if err := p.run(m, cfg.tmp, cfg.scale); err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// traceWorkload runs an open phase, an untraced and a traced closed phase, a
// third of --seconds each, and sets the metrics that come from their spans
// and from the layer counters read at their boundaries.
func traceWorkload(ctx context.Context, cfg *runConfig, res *runResult, m *metrics) error {
	tr := newTracer()
	d, _, err := setUp(ctx, cfg, tr)
	if err != nil {
		return err
	}
	defer d.dep.close()
	dep, workers, third := d.dep, cfg.def.workers, cfg.seconds/3

	runClosed(ctx, workers, min(warmup, cfg.seconds), d.op)
	open := runOpen(ctx, workers, third, cfg.def.openRate, gapStream(cfg), d.op)
	before := readCounters(dep)
	plain := runClosed(ctx, workers, third, d.op)
	mid := readCounters(dep)
	tr.start(ctx, dep.replicas)
	traced := runClosed(ctx, workers, third, d.op)
	tr.stop()
	after := readCounters(dep)
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	res.Correct = true
	finish(ctx, d, res, open, plain, traced)
	openLat := open.latencies()
	if !onSchedule(open, openLat) {
		res.Correct = false
		res.Error = "open phase invalid: the generator's median lateness exceeds a tenth of the median latency"
	}
	if cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}

	// Spans of the traced phase.
	for name, metric := range map[string]string{
		"txn": "trace.txn_p50_us", "order": "core.order_us", "apply": "core.apply_us", "durable": "core.resp_to_durable_us",
	} {
		ds := tr.durations(name)
		m.set(metric, percentile(ds, 0.5), len(ds))
	}
	m.set("trace.overhead_share", 1-ratio(traced.tps(), plain.tps()), len(traced.samples))

	// Counters over the traced phase, per committed update.
	txns := float64(after.committed - mid.committed)
	n := int(txns)
	bcasts := float64(after.ab.Broadcast - mid.ab.Broadcast)
	m.set("core.abort_share", ratio(float64(after.aborted-mid.aborted), txns+float64(after.aborted-mid.aborted)), n)
	m.set("abcast.msgs_per_txn", ratio(float64(after.ab.MsgsSent-mid.ab.MsgsSent), bcasts), n)
	m.set("abcast.batch_mean", ratio(bcasts, float64(after.ab.DataBatches-mid.ab.DataBatches)), n)
	m.set("abcast.ack_merge", ratio(float64(after.ab.Ordered-mid.ab.Ordered), float64(after.ab.AckSends-mid.ab.AckSends)), n)
	m.set("abcast.nacks", float64(after.ab.NacksSent-before.ab.NacksSent), n)
	m.set("abcast.retransmits", float64(after.ab.Retransmits-before.ab.Retransmits), n)
	m.set("abcast.epoch_jumps", float64(after.ab.EpochJumps-before.ab.EpochJumps), n)
	m.set("transport.sent_per_txn", ratio(float64(after.sent-mid.sent), txns), n)
	m.set("transport.dropped", float64(after.dropped-before.dropped), n)
	m.set("storage.pruned_per_write", ratio(float64(after.pruned-mid.pruned), float64(after.writes-mid.writes)), int(after.writes-mid.writes))
	chain := 0
	for _, r := range dep.replicas {
		for item := 0; item < items; item++ {
			chain = max(chain, r.DB().Store().ChainLen(item))
		}
	}
	m.set("storage.chain_len_max", float64(chain), items*len(dep.replicas))

	// The untraced closed phase: load and runtime.
	ops := float64(len(plain.samples))
	m.set("wal.bytes_per_txn", ratio(float64(mid.walBytes-before.walBytes), float64(mid.committed-before.committed)), int(mid.committed-before.committed))
	m.set("runtime.allocs_per_txn", ratio(float64(mid.mallocs-before.mallocs), ops), len(plain.samples))
	m.set("runtime.gc_cpu_share", ratio(mid.gcCPU-before.gcCPU, mid.totalCPU-before.totalCPU), 1)
	m.set("runtime.heap_mb_end", float64(heap.HeapAlloc)/1e6, 1)
	m.set("load.p99_us", percentile(plain.latencies(), 0.99), len(plain.samples))
	m.set("load.open_p50_us", percentile(openLat, 0.5), len(openLat))
	m.set("load.open_p99_us", percentile(openLat, 0.99), len(openLat))
	m.set("load.gen_late_p99_us", percentile(open.late, 0.99), len(open.late))
	m.set("load.tps_drift", plain.drift(), len(plain.rates()))
	m.set("load.samples", float64(len(plain.samples)+len(traced.samples)+len(open.samples)), 1)
	m.set("load.fail_share", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	return nil
}
