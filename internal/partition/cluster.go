package partition

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/gcs/transport"
)

// gidBase namespaces router-assigned transaction ids away from replica-local
// ids ((index+1)<<40 | n) and the fuzzer's ids (0xF5<<40 | n), so a decomposed
// transaction can never collide with a locally delegated one in any
// partition's applied set.
const gidBase = uint64(0xD0) << 40

// Cluster is a partitioned replicated database: P independent core clusters
// (one replica group and total order per partition) sharing one simulated
// wire, plus the router state for cross-partition transactions.  Server i
// hosts replica i of every partition, so crashes and recoveries are
// whole-server events applied to all partitions together.
//
// With one partition the Cluster is a transparent pass-through around a
// single core.Cluster built from the unmodified configuration: no mux, no
// transaction decomposition, no freshness vectors — the exact code paths of
// an unpartitioned deployment.
type Cluster struct {
	pmap  Map
	parts []*core.Cluster
	base  *transport.MemNetwork // nil when P == 1
	gids  atomic.Uint64
	// execTimeout mirrors the config's Execute bound; it also bounds the
	// router's orphaned-decide grace window (see decideContext).
	execTimeout time.Duration
}

// New builds and starts a partitioned cluster from the core configuration
// (cfg.Partitions selects the partition count; zero or one means
// unpartitioned).  Partitioned operation requires a group-communication
// safety level: the router's ordered two-phase
// commit and the freshness vector both live in the partitions' total orders.
func New(cfg core.ClusterConfig) (*Cluster, error) {
	p := cfg.Partitions
	if p < 1 {
		p = 1
	}
	et := cfg.ExecTimeout
	if et <= 0 {
		et = 10 * time.Second // core's own Execute default
	}
	if p == 1 {
		single, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		return &Cluster{pmap: NewMap(itemsOf(cfg), 1), parts: []*core.Cluster{single}, execTimeout: et}, nil
	}

	if !cfg.Level.UsesGroupCommunication() {
		return nil, fmt.Errorf("partition: %d partitions require a group-communication safety level (got %v)", p, cfg.Level)
	}
	items := itemsOf(cfg)
	if p > items {
		return nil, fmt.Errorf("partition: %d partitions exceed the %d-item keyspace", p, items)
	}

	// One simulated wire for the whole server set; each partition's replica
	// stack runs on its own namespaced virtual network over it, so base-level
	// fault injection (latency, loss, partitions, crashes) hits every
	// partition at once like a shared NIC.
	netOpts := []transport.MemOption{transport.WithSeed(cfg.Seed)}
	if cfg.NetworkLatency > 0 {
		netOpts = append(netOpts, transport.WithLatency(cfg.NetworkLatency))
	}
	base := transport.NewMemNetwork(netOpts...)
	mux := transport.NewMux(base)

	c := &Cluster{pmap: NewMap(items, p), base: base, execTimeout: et}
	for i := 0; i < p; i++ {
		sub := cfg
		sub.Partitions = 1
		sub.Items = c.pmap.Size(i)
		sub.Network = mux.Instance(fmt.Sprintf("p%d", i))
		part, err := core.NewCluster(sub)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("partition: start partition %d: %w", i, err)
		}
		c.parts = append(c.parts, part)
	}
	return c, nil
}

// itemsOf mirrors core's Items default so the map agrees with the cluster.
func itemsOf(cfg core.ClusterConfig) int {
	if cfg.Items <= 0 {
		return 1024
	}
	return cfg.Items
}

// Map returns the partition map.
func (c *Cluster) Map() Map { return c.pmap }

// NumPartitions returns the number of partitions.
func (c *Cluster) NumPartitions() int { return len(c.parts) }

// Part returns partition p's core cluster (nil when out of range); tests and
// the fuzzer use it for direct per-partition access.
func (c *Cluster) Part(p int) *core.Cluster {
	if p < 0 || p >= len(c.parts) {
		return nil
	}
	return c.parts[p]
}

// BaseNetwork returns the network carrying every partition's traffic, for
// fault injection: the shared base wire when partitioned, the single
// partition's own network otherwise.
func (c *Cluster) BaseNetwork() *transport.MemNetwork {
	if c.base != nil {
		return c.base
	}
	return c.parts[0].Network()
}

// Size returns the number of replica servers (per partition — every server
// hosts one replica of each partition).
func (c *Cluster) Size() int { return c.parts[0].Size() }

// Level returns the configured safety level.
func (c *Cluster) Level() core.SafetyLevel { return c.parts[0].Level() }

// LiveCount returns the number of non-crashed servers.
func (c *Cluster) LiveCount() int { return c.parts[0].LiveCount() }

// ReplicaID returns the network address of server i ("" when out of range).
func (c *Cluster) ReplicaID(i int) string {
	if r := c.parts[0].Replica(i); r != nil {
		return r.ID()
	}
	return ""
}

// ReplicaCrashed reports whether server i is crashed (false out of range).
func (c *Cluster) ReplicaCrashed(i int) bool {
	if r := c.parts[0].Replica(i); r != nil {
		return r.Crashed()
	}
	return false
}

// Crash crash-stops server i: replica i of every partition goes down together
// (a server crash takes all co-located partition replicas with it).
func (c *Cluster) Crash(i int) {
	for _, part := range c.parts {
		part.Crash(i)
	}
}

// Recover restarts server i in every partition, each partition performing its
// own state transfer from its most advanced live replica.  It returns the
// total number of replayed end-to-end messages; the first error wins but
// every partition is still attempted (a partially recovered server is better
// than a stranded one).
func (c *Cluster) Recover(i int) (int, error) {
	total := 0
	var firstErr error
	for _, part := range c.parts {
		n, err := part.Recover(i)
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// Suspect tells server observer's replicas to treat server suspect as crashed,
// in every partition.
func (c *Cluster) Suspect(observer, suspect int) {
	for _, part := range c.parts {
		obs := part.Replica(observer)
		sus := part.Replica(suspect)
		if obs == nil || sus == nil {
			continue
		}
		obs.Suspect(sus.ID())
	}
}

// Unsuspect reverses Suspect in every partition (a recovered server is taken
// back by the survivors' broadcast layers).
func (c *Cluster) Unsuspect(observer, suspect int) {
	for _, part := range c.parts {
		obs := part.Replica(observer)
		sus := part.Replica(suspect)
		if obs == nil || sus == nil {
			continue
		}
		obs.Unsuspect(sus.ID())
	}
}

// AppliedSeq returns the applied broadcast sequence of server i's replica of
// partition p (0 when either index is out of range).  It is a lock-free
// atomic read, cheap enough for per-request routing decisions.
func (c *Cluster) AppliedSeq(i, p int) uint64 {
	if p < 0 || p >= len(c.parts) {
		return 0
	}
	if r := c.parts[p].Replica(i); r != nil {
		return r.LastAppliedSeq()
	}
	return 0
}

// DurableLSN sums the durable frontiers of server i's per-partition logs: a
// coarse "how much of this server survives a crash" measure used by the fuzz
// harness to pick recovery donors (per-partition LSNs are not comparable
// across partitions, but the sum orders servers well enough for a heuristic).
func (c *Cluster) DurableLSN(i int) uint64 {
	var total uint64
	for _, part := range c.parts {
		if r := part.Replica(i); r != nil {
			total += r.DurableLSN()
		}
	}
	return total
}

// Value returns the committed value of global item at server i, routed to the
// owning partition.
func (c *Cluster) Value(i, item int) (int64, error) {
	if item < 0 || item >= c.pmap.Items() {
		return 0, fmt.Errorf("%w: item %d", core.ErrNotFound, item)
	}
	return c.parts[c.pmap.Owner(item)].Value(i, c.pmap.Local(item))
}

// WaitConsistent blocks until every live replica of every partition converged,
// or until ctx is done (see core.Cluster.WaitConsistent).
func (c *Cluster) WaitConsistent(ctx context.Context) error {
	for _, part := range c.parts {
		if err := part.WaitConsistent(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Consistent reports whether every partition's live replicas currently agree.
func (c *Cluster) Consistent() bool {
	for _, part := range c.parts {
		if !part.Consistent() {
			return false
		}
	}
	return true
}

// TotalStats aggregates the replica counters across every partition.
func (c *Cluster) TotalStats() core.ReplicaStats {
	var total core.ReplicaStats
	for _, part := range c.parts {
		s := part.TotalStats()
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

// Close shuts every partition down.
func (c *Cluster) Close() {
	for _, part := range c.parts {
		part.Close()
	}
}

// WaitDurable blocks until the commit record named by res is durable in the
// log that holds it (res.Delegate's replica of res.CommitPartition), forcing
// it on demand; see core.Replica.WaitDurable.
func (c *Cluster) WaitDurable(ctx context.Context, res core.Result) error {
	p := res.CommitPartition
	if p < 0 || p >= len(c.parts) {
		return fmt.Errorf("%w: partition %d", core.ErrNotFound, p)
	}
	r := c.parts[p].ReplicaByID(res.Delegate)
	if r == nil {
		return fmt.Errorf("%w: delegate %s", core.ErrNotFound, res.Delegate)
	}
	return r.WaitDurable(ctx, res.CommitLSN)
}

// newGID assigns a router transaction id in the router's namespace.
func (c *Cluster) newGID() uint64 { return gidBase | c.gids.Add(1) }

// liveReplica returns a non-crashed replica of partition p, preferring the
// given server index, or nil when the whole partition is down.
func (c *Cluster) liveReplica(p, prefer int) *core.Replica {
	part := c.parts[p]
	n := part.Size()
	for k := 0; k < n; k++ {
		i := (prefer + k) % n
		if r := part.Replica(i); r != nil && !r.Crashed() {
			return r
		}
	}
	return nil
}
