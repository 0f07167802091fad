package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// spec names one metric of the benchmark.  The two tables below are the
// single source of names, units and directions; BENCHMARK.json repeats them
// for the driver and bench_test.go asserts that the two agree.
type spec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd are the client-observed metrics, measured with tracing off and
// printed for every workload.  The open-loop latencies, the p99s and
// fail_share are not here: see README.md ("Demoted metrics").
var endToEnd = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"tps", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
}

// perLayer are the layer metrics of the traced run (--trace 1), named
// layer.metric.  They carry no bound.
var perLayer = []spec{
	{"gsdb.route_overhead_ns", "ns", "lower", 0},
	{"core.order_us", "us", "lower", 0},
	{"core.apply_us", "us", "lower", 0},
	{"core.resp_to_durable_us", "us", "lower", 0},
	{"core.query_ns", "ns", "lower", 0},
	{"core.abort_share", "share", "lower", 0},
	{"abcast.bcast_deliver_us", "us", "lower", 0},
	{"abcast.bcast_tps_16", "1/s", "higher", 0},
	{"abcast.msgs_per_txn", "count", "lower", 0},
	{"abcast.batch_mean", "count", "higher", 0},
	{"abcast.ack_merge", "count", "higher", 0},
	{"abcast.nacks", "count", "lower", 0},
	{"abcast.retransmits", "count", "lower", 0},
	{"abcast.epoch_jumps", "count", "lower", 0},
	{"e2e.forces_per_txn", "count", "lower", 0},
	{"transport.mem_hop_ns", "ns", "lower", 0},
	{"transport.tcp_hop_us", "us", "lower", 0},
	{"transport.sent_per_txn", "count", "lower", 0},
	{"transport.dropped", "count", "lower", 0},
	{"netproto.req_codec_ns", "ns", "lower", 0},
	{"netproto.res_codec_ns", "ns", "lower", 0},
	{"netproto.allocs_per_roundtrip", "count", "lower", 0},
	{"server.query_rtt_us", "us", "lower", 0},
	{"wal.file_append_ns", "ns", "lower", 0},
	{"wal.file_sync_us", "us", "lower", 0},
	{"wal.gc_forces_per_waiter", "count", "lower", 0},
	{"wal.bytes_per_txn", "B", "lower", 0},
	{"db.local_commit_us", "us", "lower", 0},
	{"db.stage_install_ns", "ns", "lower", 0},
	{"db.read_txn_ns", "ns", "lower", 0},
	{"storage.apply_writes_ns", "ns", "lower", 0},
	{"storage.snap_read_ns", "ns", "lower", 0},
	{"storage.chain_len_max", "count", "lower", 0},
	{"storage.pruned_per_write", "count", "higher", 0},
	{"apply.sched_ns_per_txn", "ns", "lower", 0},
	{"partition.single_us", "us", "lower", 0},
	{"partition.cross_us", "us", "lower", 0},
	{"load.p99_us", "us", "lower", 0},
	{"load.open_p50_us", "us", "lower", 0},
	{"load.open_p99_us", "us", "lower", 0},
	{"load.fail_share", "share", "lower", 0},
	{"load.gen_late_p99_us", "us", "lower", 0},
	{"load.tps_drift", "ratio", "higher", 0},
	{"load.samples", "count", "higher", 0},
	{"runtime.heap_mb_end", "MB", "lower", 0},
	{"runtime.gc_cpu_share", "share", "lower", 0},
	{"runtime.allocs_per_txn", "count", "lower", 0},
	{"trace.txn_p50_us", "us", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
}

// metric is one measured value.  Samples is how many observations the value
// summarises (operations for a percentile, windows for a rate, iterations for
// a probe).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// metrics collects values against a spec table, so a name that is misspelt
// or never set is caught before anything prints.
type metrics struct {
	specs  []spec
	values map[string]metric
}

func newMetrics(specs []spec) *metrics {
	return &metrics{specs: specs, values: make(map[string]metric, len(specs))}
}

func (m *metrics) set(name string, value float64, samples int) {
	for _, s := range m.specs {
		if s.Name == name {
			m.values[name] = metric{Value: value, Unit: s.Unit, Samples: samples}
			return
		}
	}
	panic("bench: metric " + name + " is not in the spec table")
}

// complete reports the first metric that is missing or not finite.
func (m *metrics) complete() error {
	for _, s := range m.specs {
		v, ok := m.values[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", s.Name, v.Value)
		}
	}
	return nil
}

// median returns the middle of vs (the mean of the middle two for an even
// count); 0 for an empty sample.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vs by the same rule as
// Python's statistics.quantiles(vs, n=4) (the exclusive method), which is
// what the driver applies to the ten-run sets.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		pos := p * float64(n+1)
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// percentile returns the p-quantile of a sorted duration sample in
// microseconds.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(p*float64(len(sorted)-1))]) / float64(time.Microsecond)
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
