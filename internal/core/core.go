package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"groupsafe/internal/gcs/transport"
	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
)

// ClusterConfig configures an in-process replicated database cluster (one
// replica per server, all connected by an in-memory network with failure
// injection).
type ClusterConfig struct {
	// Replicas is the number of servers (the paper assumes n >= 3; Table 4
	// uses 9).
	Replicas int
	// Items is the database size.
	Items int
	// Level is the safety criterion of every replica.
	Level SafetyLevel
	// DiskSyncDelay emulates the cost of forcing a log to disk.
	DiskSyncDelay time.Duration
	// NetworkLatency emulates the LAN.
	NetworkLatency time.Duration
	// ExecTimeout bounds Execute calls.
	ExecTimeout time.Duration
	// LazyPropagationDelay postpones lazy write-set propagation (failure
	// injection experiments).
	LazyPropagationDelay time.Duration
	// RecordApplied turns on the per-replica applied-transaction log (see
	// ReplicaConfig.RecordApplied and Replica.AppliedLog).
	RecordApplied bool
	// Seed seeds the network randomness.
	Seed int64
	// Partitions is the number of keyspace partitions.  The core cluster
	// itself is always one partition (one total order); the field is read by
	// the partition router layered on top (internal/partition, gsdb), which
	// builds one core cluster per partition.  Zero or one means unpartitioned.
	Partitions int
	// Network, when non-nil, attaches the replicas to the given transport
	// instead of building a private in-memory network.  The partition layer
	// uses it to share one simulated wire across per-partition clusters.
	// When set, NetworkLatency and Seed are ignored here (the owner
	// of the base network configures them) and Cluster.Network returns nil.
	Network transport.Network
}

func (c *ClusterConfig) applyDefaults() {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Items <= 0 {
		c.Items = 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Cluster is a set of replicas sharing one in-memory network.
type Cluster struct {
	cfg     ClusterConfig
	network *transport.MemNetwork
	// replicas holds each server's current life: Recover swaps a new
	// Replica into the slot while Execute may be loading it.
	replicas []atomic.Pointer[Replica]
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.applyDefaults()
	var memnet *transport.MemNetwork
	network := cfg.Network
	if network == nil {
		netOpts := []transport.MemOption{transport.WithSeed(cfg.Seed)}
		if cfg.NetworkLatency > 0 {
			netOpts = append(netOpts, transport.WithLatency(cfg.NetworkLatency))
		}
		memnet = transport.NewMemNetwork(netOpts...)
		network = memnet
	}

	members := make([]string, cfg.Replicas)
	for i := range members {
		members[i] = fmt.Sprintf("s%d", i+1)
	}
	c := &Cluster{cfg: cfg, network: memnet, replicas: make([]atomic.Pointer[Replica], len(members))}
	for i, id := range members {
		r, err := NewReplica(ReplicaConfig{
			ID:                   id,
			Members:              members,
			Items:                cfg.Items,
			Level:                cfg.Level,
			Network:              network,
			DiskSyncDelay:        cfg.DiskSyncDelay,
			ExecTimeout:          cfg.ExecTimeout,
			LazyPropagationDelay: cfg.LazyPropagationDelay,
			RecordApplied:        cfg.RecordApplied,
		})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("core: start replica %d: %w", i, err)
		}
		c.replicas[i].Store(r)
	}
	return c, nil
}

// Network exposes the underlying in-memory network (for partition injection).
// It is nil when the cluster was attached to an injected transport via
// ClusterConfig.Network — fault injection then goes through the owner of that
// transport.
func (c *Cluster) Network() *transport.MemNetwork { return c.network }

// Size returns the number of replicas.
func (c *Cluster) Size() int { return len(c.replicas) }

// Level returns the cluster's safety level.
func (c *Cluster) Level() SafetyLevel { return c.cfg.Level }

// Replica returns the i-th replica (0-based).
func (c *Cluster) Replica(i int) *Replica {
	if i < 0 || i >= len(c.replicas) {
		return nil
	}
	return c.replicas[i].Load()
}

// Replicas returns all replicas.
func (c *Cluster) Replicas() []*Replica {
	out := make([]*Replica, len(c.replicas))
	for i := range out {
		out[i] = c.replicas[i].Load()
	}
	return out
}

// Execute runs a request with replica i as the delegate; ctx bounds the call
// (a context without a deadline gets the configured ExecTimeout as a
// default).
func (c *Cluster) Execute(ctx context.Context, i int, req Request) (Result, error) {
	r := c.Replica(i)
	if r == nil {
		return Result{}, fmt.Errorf("%w: index %d", ErrNotFound, i)
	}
	return r.Execute(ctx, req)
}

// ReplicaByID returns the replica with the given network address, or nil.
func (c *Cluster) ReplicaByID(id string) *Replica {
	for _, r := range c.Replicas() {
		if r.cfg.ID == id {
			return r
		}
	}
	return nil
}

// Crash crashes replica i.
func (c *Cluster) Crash(i int) {
	if r := c.Replica(i); r != nil {
		r.Crash()
	}
}

// Recover restarts crashed replica i the way a server process restarts: a
// recovered process is a new process (the dynamic crash no-recovery model),
// so a new Replica in the next incarnation takes the slot.  It starts from
// the durable prefix of the crashed life's log, installs a state transfer
// from the most advanced live replica, if any is available (the paper's
// checkpoint-based recovery), and, with end-to-end atomic broadcast, replays
// its logged-but-unacknowledged messages.  It returns the number of replayed
// messages.
func (c *Cluster) Recover(i int) (int, error) {
	old := c.Replica(i)
	if old == nil {
		return 0, fmt.Errorf("%w: index %d", ErrNotFound, i)
	}
	if !old.Crashed() {
		return 0, fmt.Errorf("core: replica %s is not crashed", old.ID())
	}
	var snapshot *StateSnapshot
	if donor := c.liveDonor(i); donor != nil {
		s := donor.Snapshot()
		snapshot = &s
	}
	return c.restart(i, snapshot)
}

// restart replaces crashed replica i by its next life: the old one is closed
// (after its crash teardown), its log drops the unforced tail, and a new
// Replica over that log gets snapshot (when non-nil) before it takes the
// slot and replays its logged messages.  The log's id mark names the new
// life, as it does a restarted gsdb-server.
func (c *Cluster) restart(i int, snapshot *StateSnapshot) (int, error) {
	old := c.Replica(i)
	_ = old.Close()
	old.cfg.DBLog.(*wal.MemLog).Crash()
	old.cfg.Network.Recover(old.cfg.ID)
	r, err := newReplica(old.cfg, old)
	if err != nil {
		return 0, fmt.Errorf("core: restart replica %s: %w", old.cfg.ID, err)
	}
	if snapshot != nil {
		r.installSnapshot(*snapshot)
	}
	c.replicas[i].Store(r)
	return r.ReplayLoggedMessages()
}

// liveDonor returns the non-crashed replica (other than the one at index i)
// with the most advanced committed state, or nil when none is available.
// Using the most advanced donor minimises the window of messages the
// recovering replica can no longer obtain from the group (checkpoint-based
// recovery has no message replay; that is exactly the limitation the paper's
// end-to-end atomic broadcast removes).  Advancement is measured by the
// total committed write count, not LastAppliedSeq: the broadcast sequence is
// volatile bookkeeping that restarts on recovery, so after a crash storm a
// fully recovered replica can carry the longest state at a near-zero
// sequence number.  LastAppliedSeq breaks ties.
func (c *Cluster) liveDonor(i int) *Replica {
	var donor *Replica
	var donorWrites uint64
	for j, r := range c.Replicas() {
		if j == i || r.Crashed() {
			continue
		}
		w := r.DB().CommittedWriteCount()
		if donor == nil || w > donorWrites ||
			(w == donorWrites && r.LastAppliedSeq() > donor.LastAppliedSeq()) {
			donor = r
			donorWrites = w
		}
	}
	return donor
}

// LiveCount returns the number of non-crashed replicas.
func (c *Cluster) LiveCount() int {
	n := 0
	for _, r := range c.Replicas() {
		if !r.Crashed() {
			n++
		}
	}
	return n
}

// Value returns the committed value of item at replica i.
func (c *Cluster) Value(i, item int) (int64, error) {
	r := c.Replica(i)
	if r == nil {
		return 0, fmt.Errorf("%w: index %d", ErrNotFound, i)
	}
	v, _, err := r.DB().ReadVersioned(item)
	return v, err
}

// DivergenceError reports why a WaitConsistent call gave up: the first item
// observed to differ between two live replicas.  It wraps the context error
// that ended the wait, so errors.Is(err, context.DeadlineExceeded) (or
// Canceled) still works on it.
type DivergenceError struct {
	// ReplicaA and ReplicaB are the two disagreeing replicas.
	ReplicaA, ReplicaB string
	// Item is the first diverging item index.
	Item int
	// ValueA/VersionA and ValueB/VersionB are the item's committed state on
	// the respective replicas at the time of the final check.
	ValueA, ValueB     int64
	VersionA, VersionB uint64
	cause              error
}

// Error implements error.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("core: replicas %s and %s diverged at item %d (%s: value=%d version=%d, %s: value=%d version=%d): %v",
		e.ReplicaA, e.ReplicaB, e.Item, e.ReplicaA, e.ValueA, e.VersionA, e.ReplicaB, e.ValueB, e.VersionB, e.cause)
}

// Unwrap exposes the context error that ended the wait.
func (e *DivergenceError) Unwrap() error { return e.cause }

// WaitConsistent blocks until every live replica converged to the same store
// contents, or until ctx is done.  On success it returns nil; when the
// context expires first it returns a *DivergenceError naming the first
// replica pair and item that still disagreed (wrapping ctx.Err()), or nil
// in the degenerate case where the stores converged between the expiry and
// the final check — the wait's goal was reached, so it is not reported as a
// failure.  (Group-communication-based levels converge as soon as
// their delivery queues drain; lazy replication may never converge when
// conflicting transactions were accepted.)
func (c *Cluster) WaitConsistent(ctx context.Context) error {
	for {
		if c.consistentNow() {
			return nil
		}
		select {
		case <-ctx.Done():
			if d := c.firstDivergence(); d != nil {
				d.cause = ctx.Err()
				return d
			}
			return nil // converged between the poll and the final check
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// consistentNow is firstDivergence's boolean form, so the convergence poll
// and the failure report can never apply different comparisons.
func (c *Cluster) consistentNow() bool {
	return c.firstDivergence() == nil
}

// firstDivergence scans the live replicas pairwise against the first live
// one and returns the first differing item, or nil when all agree.
func (c *Cluster) firstDivergence() *DivergenceError {
	var reference *Replica
	var refItems []storage.Item
	for _, r := range c.Replicas() {
		if r.Crashed() {
			continue
		}
		if reference == nil {
			reference = r
			refItems = r.DB().Store().Snapshot()
			continue
		}
		items := r.DB().Store().Snapshot()
		n := len(refItems)
		if len(items) < n {
			n = len(items)
		}
		for i := 0; i < n; i++ {
			if refItems[i] != items[i] {
				return &DivergenceError{
					ReplicaA: reference.ID(), ReplicaB: r.ID(),
					Item:   i,
					ValueA: refItems[i].Value, ValueB: items[i].Value,
					VersionA: refItems[i].Version, VersionB: items[i].Version,
				}
			}
		}
		if len(refItems) != len(items) {
			return &DivergenceError{ReplicaA: reference.ID(), ReplicaB: r.ID(), Item: n}
		}
	}
	return nil
}

// Consistent reports whether every live replica currently has identical
// committed state.
func (c *Cluster) Consistent() bool { return c.consistentNow() }

// TotalStats aggregates the replica counters.
func (c *Cluster) TotalStats() ReplicaStats {
	var total ReplicaStats
	for _, r := range c.Replicas() {
		s := r.Stats()
		total.Executed += s.Executed
		total.Committed += s.Committed
		total.Aborted += s.Aborted
		total.Delivered += s.Delivered
		total.LazyApply += s.LazyApply
		total.Queries += s.Queries
		total.AcksSent += s.AcksSent
	}
	return total
}

// Close shuts every replica down.
func (c *Cluster) Close() {
	for _, r := range c.Replicas() {
		if r != nil { // a replica NewCluster failed to start
			_ = r.Close()
		}
	}
}
