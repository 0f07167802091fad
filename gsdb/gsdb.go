// Package gsdb is the public client API of the group-safe replicated
// database.  It is the supported surface of this module: everything under
// internal/ is implementation detail and may change without notice, while
// the identifiers exported here follow the stability policy below.
//
// The package exposes the system of Wiesmann & Schiper's "Beyond 1-Safety
// and 2-Safety for Replicated Databases: Group-Safety" as a context-first
// embedded database client:
//
//	client, err := gsdb.Open(ctx,
//		gsdb.WithReplicas(3),
//		gsdb.WithSafetyLevel(gsdb.GroupSafe),
//	)
//	if err != nil { ... }
//	defer client.Close()
//
//	res, err := client.Execute(ctx, gsdb.Request{Ops: []gsdb.Op{
//		{Item: 1, Write: true, Value: 42},
//	}})
//
// # Safety as a per-transaction, end-to-end guarantee
//
// The paper's safety criteria (0-safe, 1-safe, group-safe, group-1-safe,
// 2-safe, very safe) describe what is guaranteed about a transaction at the
// moment the client is notified.  gsdb makes that choice per transaction,
// not only per cluster: a single Execute may strengthen its own response
// point with WithSafety, and the requested level rides inside the broadcast
// payload so every replica forces and acknowledges that one transaction at
// its level:
//
//	res, err := client.Execute(ctx, req, gsdb.WithSafety(gsdb.VerySafe))
//
// Levels weaker than the cluster's machinery floor are canonicalised up;
// levels needing machinery the cluster was not built with (2-safe on a
// classical-broadcast cluster) fail with ErrSafetyUnavailable.
//
// # Local queries and freshness
//
// The paper's split between transaction classes is first-class: update
// transactions ride the total-order broadcast, while read-only transactions
// execute at a single replica on a local MVCC snapshot — no locks, no group
// communication, no aborts — so every replica is a query server and query
// capacity scales with the cluster:
//
//	res, err := client.Execute(ctx, gsdb.Query(1, 2, 3))
//
// Each result carries a Freshness token (the replica's position in the total
// order).  Passing the largest token seen back via WithFreshness yields
// monotonic session reads, including reading your own committed writes from
// any replica.  The lazy levels (0-safe, 1-safe-lazy) have no comparable
// sequence: their queries carry no token and a freshness floor is refused.
//
// # Response versus durability
//
// Group-safety's central trade is answering the client at message delivery
// while the disk force happens later.  Submit makes the two points visible
// in the type system: it returns a *Commit whose Responded resolves at the
// transaction's response point (e.g. group-safe delivery) and whose Durable
// resolves only once the commit record is forced to the delegate's local
// log.
//
// # Contexts and timeouts
//
// Every blocking call takes a context.Context and honours its deadline and
// cancellation; cancelling an Execute mid-flight deregisters its waiter
// promptly (the transaction itself may still commit group-wide — only the
// notification is abandoned).  A context without a deadline falls back to
// the cluster's ExecTimeout (WithExecTimeout).  Deadline expiries surface as
// errors matching both ErrTimeout and context.DeadlineExceeded.
//
// # Stability policy
//
// The gsdb package and its subpackage server are the module's public API:
//
//   - an identifier exported by gsdb keeps its signature, its option
//     semantics and its error identity (errors.Is) for as long as it
//     exists; new functions, options and struct fields may be added;
//   - an exported identifier may be removed, but only in a change whose
//     CHANGES.md entry names each removed identifier and which commits
//     the matching api.txt diff;
//   - the CI pipeline diffs `go doc -all` of gsdb and of server against
//     the api.txt committed beside each, so every surface change is
//     explicit in review;
//   - packages under internal/ carry no compatibility promise at all — no
//     code outside this module can import them, and neither do the examples
//     (enforced by a test); the repository's own commands under cmd/
//     import the internal packages they drive.
package gsdb

import (
	"context"
	"fmt"
	"sync/atomic"

	"groupsafe/internal/core"
)

// Open builds and starts an in-process replicated database cluster (one
// replica per simulated server, connected by an in-memory network with
// failure injection) and returns a client for it.  The default cluster is
// three replicas at the group-safe level; see the With* options.
func Open(ctx context.Context, opts ...Option) (*Client, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gsdb: open: %w", err)
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("gsdb: open: %w", err)
	}
	return &Client{cluster: cluster, inflight: make([]atomic.Int64, cluster.Size())}, nil
}

// Client is a handle on a running replicated database cluster.  All methods
// are safe for concurrent use.
type Client struct {
	cluster  *core.Cluster
	closed   atomic.Bool
	rr       atomic.Uint64
	inflight []atomic.Int64 // per-replica requests currently being served
}

// Close shuts every replica down.  Calls after Close fail with ErrClosed.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.cluster.Close()
	return nil
}

// Execute runs one transaction and blocks until the notification condition
// of its safety level holds (the cluster's level, or a WithSafety override),
// or until ctx is done.  Aborted transactions are reported through
// Result.Outcome, not through the error.  The delegate replica is picked
// round-robin over the live replicas unless pinned with Via.
func (c *Client) Execute(ctx context.Context, req Request, opts ...TxnOption) (Result, error) {
	if c.closed.Load() {
		return Result{}, ErrClosed
	}
	o := newTxnOptions(opts)
	o.apply(&req)
	delegate := c.pickDelegate(&o)
	done := c.track(delegate)
	defer done()
	return c.cluster.Execute(ctx, delegate, req)
}

// Submit starts one transaction asynchronously and returns a Commit handle
// for its response and durability points.  ctx governs the whole in-flight
// transaction: cancelling it resolves the handle with the cancellation
// error.  See Commit.
func (c *Client) Submit(ctx context.Context, req Request, opts ...TxnOption) (*Commit, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	o := newTxnOptions(opts)
	o.apply(&req)
	delegate := c.pickDelegate(&o)
	doneTracking := c.track(delegate)
	cm := &Commit{client: c, done: make(chan struct{})}
	go func() {
		defer close(cm.done)
		defer doneTracking()
		cm.res, cm.err = c.cluster.Execute(ctx, delegate, req)
	}()
	return cm, nil
}

// track counts one in-flight request against replica i for the load-aware
// routing, returning the matching decrement (a no-op for an out-of-range
// pinned delegate — Execute surfaces ErrNotFound for those).
func (c *Client) track(i int) func() {
	if i < 0 || i >= len(c.inflight) {
		return func() {}
	}
	c.inflight[i].Add(1)
	return func() { c.inflight[i].Add(-1) }
}

// pickDelegate routes one call: the pinned delegate when Via was given,
// otherwise the shared policy (route) over the live replicas, with each
// replica's lag taken from its applied sequence (floorLag) and its load from
// the in-flight counters — so a floored session read lands on a replica that
// can answer without blocking whenever one exists, and otherwise parks on the
// least-lagging replica's freshness gate.
func (c *Client) pickDelegate(o *txnOptions) int {
	if o.delegate >= 0 {
		return o.delegate
	}
	n := c.cluster.Size()
	return route(n, int(c.rr.Add(1)-1)%n,
		c.ReplicaCrashed,
		func(i int) uint64 { return c.floorLag(i, o.freshness) },
		func(i int) int64 { return c.inflight[i].Load() })
}

// floorLag returns how far replica i's applied sequence falls short of the
// call's freshness floor; 0 means the replica can serve the floored read
// without waiting.
func (c *Client) floorLag(i int, floor uint64) uint64 {
	if applied := c.cluster.Replica(i).LastAppliedSeq(); applied < floor {
		return floor - applied
	}
	return 0
}

// WaitConsistent blocks until every live replica holds identical committed
// state, or until ctx is done.  On failure the returned error names the
// first replica pair and item that diverged (see DivergenceError) and wraps
// ctx.Err().
func (c *Client) WaitConsistent(ctx context.Context) error {
	if c.closed.Load() {
		return ErrClosed
	}
	return c.cluster.WaitConsistent(ctx)
}

// Consistent reports whether every live replica currently has identical
// committed state.
func (c *Client) Consistent() bool { return c.cluster.Consistent() }

// Size returns the number of replicas.
func (c *Client) Size() int { return c.cluster.Size() }

// Level returns the cluster's configured safety level.
func (c *Client) Level() SafetyLevel { return c.cluster.Level() }

// LiveCount returns the number of non-crashed replicas.
func (c *Client) LiveCount() int { return c.cluster.LiveCount() }

// TotalStats aggregates the per-replica counters.
func (c *Client) TotalStats() Stats { return c.cluster.TotalStats() }

// Value returns the committed value of item at replica i.
func (c *Client) Value(i, item int) (int64, error) { return c.cluster.Value(i, item) }

// ReplicaID returns the network address of replica i ("" when out of range).
func (c *Client) ReplicaID(i int) string {
	if r := c.cluster.Replica(i); r != nil {
		return r.ID()
	}
	return ""
}

// ReplicaCrashed reports whether replica i is currently crashed (false when
// i is out of range).
func (c *Client) ReplicaCrashed(i int) bool {
	if r := c.cluster.Replica(i); r != nil {
		return r.Crashed()
	}
	return false
}

// Crash crash-stops server i: its endpoint goes silent and all volatile
// state (buffers, unsynced logs, queued lazy propagations) is lost.
func (c *Client) Crash(i int) { c.cluster.Crash(i) }

// Recover restarts crashed replica i, installing a state-transfer checkpoint
// from the most advanced live replica when one exists and replaying
// logged-but-unacknowledged end-to-end messages.  It returns the number of
// replayed messages.
func (c *Client) Recover(i int) (int, error) { return c.cluster.Recover(i) }

// Suspect tells replica observer to treat replica suspect as crashed (an
// in-process cluster runs no failure detector, so crashed peers are reported
// this way).
func (c *Client) Suspect(observer, suspect int) {
	obs, sus := c.cluster.Replica(observer), c.cluster.Replica(suspect)
	if obs != nil && sus != nil {
		obs.Suspect(sus.ID())
	}
}
