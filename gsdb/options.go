package gsdb

import (
	"time"

	"groupsafe/internal/core"
)

// Option configures Open.
type Option func(*core.ClusterConfig)

func defaultConfig() core.ClusterConfig {
	return core.ClusterConfig{
		Replicas: 3,
		Items:    1024,
		Level:    core.GroupSafe,
	}
}

// WithReplicas sets the number of replica servers (default 3; the paper
// assumes n >= 3).
func WithReplicas(n int) Option {
	return func(cfg *core.ClusterConfig) { cfg.Replicas = n }
}

// WithItems sets the database size in items (default 1024).
func WithItems(n int) Option {
	return func(cfg *core.ClusterConfig) { cfg.Items = n }
}

// WithSafetyLevel sets the cluster's default safety level (default
// GroupSafe).  Individual transactions may strengthen their own level with
// WithSafety; 2-safe and very-safe per-transaction overrides need the
// machinery of the cluster level they ride on (see WithSafety).
func WithSafetyLevel(l SafetyLevel) Option {
	return func(cfg *core.ClusterConfig) { cfg.Level = l }
}

// WithDiskSyncDelay emulates the latency of forcing a log to disk (the
// paper's setting: 4-12ms, far above the 0.07ms network message).
func WithDiskSyncDelay(d time.Duration) Option {
	return func(cfg *core.ClusterConfig) { cfg.DiskSyncDelay = d }
}

// WithNetworkLatency emulates the one-way LAN latency.
func WithNetworkLatency(d time.Duration) Option {
	return func(cfg *core.ClusterConfig) { cfg.NetworkLatency = d }
}

// WithExecTimeout sets the DEFAULT bound on Execute calls, used only when
// the caller's context carries no deadline of its own (default 10s).  A
// context deadline always wins.
func WithExecTimeout(d time.Duration) Option {
	return func(cfg *core.ClusterConfig) { cfg.ExecTimeout = d }
}

// WithPartitions splits the keyspace into n hash partitions (default 1),
// each replicated by its own group — its own total order, certification and
// write-ahead logs — with every server hosting one replica of every
// partition over one shared wire.  Transactions touching a single partition
// run exactly like today's unpartitioned path; cross-partition updates are
// decomposed by a router into per-partition sub-transactions committed with
// an ordered two-phase commit, and results carry a per-partition freshness
// vector (Result.FreshnessVec, WithFreshnessVec).  Partitioned operation
// requires a group-communication safety level.  n <= 1 selects the
// unpartitioned fast path.
func WithPartitions(n int) Option {
	return func(cfg *core.ClusterConfig) { cfg.Partitions = n }
}

// WithSeed seeds the cluster's network randomness (default 1).
func WithSeed(seed int64) Option {
	return func(cfg *core.ClusterConfig) { cfg.Seed = seed }
}

// TxnOption configures a single Execute or Submit call.
type TxnOption func(*txnOptions)

type txnOptions struct {
	delegate     int
	safety       *SafetyLevel
	readOnly     bool
	freshness    uint64
	freshnessVec []uint64
}

func newTxnOptions(opts []TxnOption) txnOptions {
	o := txnOptions{delegate: -1}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// apply copies the per-call options into the outgoing request.
func (o *txnOptions) apply(req *Request) {
	if o.safety != nil {
		s := *o.safety
		req.Safety = &s
	}
	if o.readOnly {
		req.ReadOnly = true
	}
	if o.freshness > 0 {
		req.MinFreshness = o.freshness
	}
	if len(o.freshnessVec) > 0 {
		req.MinFreshnessVec = o.freshnessVec
	}
}

// WithSafety overrides the safety level of this one transaction: the
// requested level rides in the transaction's payload and every replica
// externalises it at that level's force/ack/delivery point, so mixed-safety
// workloads share a single cluster.  Levels below the cluster's machinery
// floor are canonicalised up (on a group-communication cluster everything
// rides the broadcast, so the floor is GroupSafe); very-safe is honoured on
// any group-communication cluster via explicit per-replica acknowledgements;
// 2-safe needs a cluster opened at 2-safe or very-safe (the end-to-end
// message log) and fails with ErrSafetyUnavailable otherwise, as does a level
// outside AllLevels.
//
// Very-safe liveness caveat: the wait ends only when EVERY member has
// acknowledged, so it blocks while any replica is down (the paper's
// definition).  On a cluster opened at 2-safe or very-safe a recovering
// replica replays its logged deliveries and the wait completes; on a
// classical-broadcast cluster (e.g. group-safe) a replica that crashed
// before delivery catches up by state transfer without replaying, its
// acknowledgement never arrives, and the override ends in ErrTimeout even
// though the transaction committed cluster-wide.
func WithSafety(l SafetyLevel) TxnOption {
	return func(o *txnOptions) { o.safety = &l }
}

// Via pins the delegate replica (by index) instead of the default
// round-robin over live replicas.
func Via(delegate int) TxnOption {
	return func(o *txnOptions) { o.delegate = delegate }
}

// ReadOnly declares this transaction a query: it executes on a local MVCC
// snapshot of one replica — no locks, no group communication, no aborts — and
// its Result carries a Freshness token (see WithFreshness).  Requests without
// writes take the same fast path automatically; the declaration makes the
// intent explicit and fails the call with ErrReadOnlyWrites if a write (or a
// Compute hook, which could emit one) sneaks in.
func ReadOnly() TxnOption {
	return func(o *txnOptions) { o.readOnly = true }
}

// WithFreshness sets a freshness floor for a read-only transaction at the
// totally-ordered levels (group-safe and up): the serving
// replica waits until it has applied at least the given broadcast sequence
// before taking its snapshot.  Feeding back the largest Result.Freshness seen so far
// gives monotonic session reads — including "read your own writes" across
// replicas, since a committed update's Result.Freshness is its own position
// in the total order.  On clusters without a comparable sequence (0-safe,
// 1-safe-lazy) a non-zero floor fails with ErrSafetyUnavailable.
func WithFreshness(token uint64) TxnOption {
	return func(o *txnOptions) { o.freshness = token }
}

// WithFreshnessVec sets per-partition freshness floors on a partitioned
// cluster: entry p floors partition p's applied sequence before that
// partition serves its share of the transaction's reads.  Feeding back the
// element-wise maximum of the Result.FreshnessVec values seen so far gives
// monotonic session reads — including reading your own cross-partition
// writes — without forcing untouched partitions to catch up the way a scalar
// WithFreshness floor would.  Entries beyond the partition count are
// ignored; on an unpartitioned cluster entry 0 degenerates to WithFreshness.
func WithFreshnessVec(vec []uint64) TxnOption {
	return func(o *txnOptions) {
		v := make([]uint64, len(vec))
		copy(v, vec)
		o.freshnessVec = v
	}
}
