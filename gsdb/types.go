package gsdb

import (
	"groupsafe/internal/core"
	"groupsafe/internal/workload"
)

// The client-facing types are aliases of the engine's own types, so values
// cross the gsdb boundary with no conversion and errors.Is/errors.As work
// across it; consumers never need to (and, outside this module, cannot)
// import the internal packages.
type (
	// Op is one read or write operation of a transaction.
	Op = workload.Op
	// Request is a client transaction: an operation list, an optional
	// Compute hook deriving further operations from the values read, and an
	// optional per-transaction safety override (set via WithSafety).
	Request = core.Request
	// Result is the transaction outcome returned at the safety level's
	// notification point.
	Result = core.Result
	// Outcome is the terminal state of a transaction.
	Outcome = core.Outcome
	// SafetyLevel is the paper's safety criterion (Table 1): what is
	// guaranteed about a transaction when the client is notified.
	SafetyLevel = core.SafetyLevel
	// Stats are cumulative per-replica counters (Client.TotalStats sums
	// them across the cluster).
	Stats = core.ReplicaStats
	// DivergenceError is returned by WaitConsistent when the context
	// expires first: it names the first replica pair and item that
	// disagreed and wraps the context error.
	DivergenceError = core.DivergenceError
	// Workload generates the paper's Table 4 transaction mix.
	Workload = workload.Generator
	// WorkloadConfig parameterises a Workload.
	WorkloadConfig = workload.Config
	// Transaction is one generated workload transaction (see
	// RequestFromWorkload).
	Transaction = workload.Transaction
)

// The safety criteria, in increasing order of guarantees (Table 1 and
// Table 2 of the paper).
const (
	// Safety0 (0-safe): notified after local execution only; a single crash
	// can lose the transaction.
	Safety0 = core.Safety0
	// Safety1Lazy (1-safe, lazy): notified once logged at the delegate;
	// write sets propagate lazily after the response.
	Safety1Lazy = core.Safety1Lazy
	// GroupSafe: notified once the transaction's message is guaranteed
	// delivered at all available servers and the decision is known; disk
	// forces happen off the response path.
	GroupSafe = core.GroupSafe
	// Group1Safe: GroupSafe plus a forced log at the delegate before the
	// response.
	Group1Safe = core.Group1Safe
	// Safety2 (2-safe): on stable storage at every available server (via
	// the end-to-end message log) before the response.
	Safety2 = core.Safety2
	// VerySafe: logged at every server, available or not, before the
	// response; a single unreachable server blocks termination.
	VerySafe = core.VerySafe
)

// Transaction outcomes.
const (
	OutcomePending   = core.OutcomePending
	OutcomeCommitted = core.OutcomeCommitted
	OutcomeAborted   = core.OutcomeAborted
)

// AllLevels lists every safety level, in increasing order of guarantees.
func AllLevels() []SafetyLevel { return core.AllLevels() }

// ParseLevel resolves a safety level name (as printed by its String method,
// e.g. "group-safe").
func ParseLevel(s string) (SafetyLevel, error) { return core.ParseLevel(s) }

// NewWorkload builds a transaction generator for the given configuration and
// seed; it is safe for concurrent use.
func NewWorkload(cfg WorkloadConfig, seed int64) *Workload {
	return workload.NewGenerator(cfg, seed)
}

// DefaultWorkloadConfig returns the paper's Table 4 workload parameters.
func DefaultWorkloadConfig() WorkloadConfig { return workload.DefaultConfig() }

// RequestFromWorkload converts one generated workload transaction into an
// executable Request (pure queries are marked ReadOnly and take the snapshot
// fast path).
func RequestFromWorkload(t Transaction) Request {
	return core.RequestFromWorkload(t)
}

// Query builds a read-only request over the given items.  It executes
// locally at one replica on an MVCC snapshot — zero group communication, no
// locks, never aborts — and returns the values in Result.ReadValues plus a
// Freshness token for monotonic session reads:
//
//	res, _ := client.Execute(ctx, gsdb.Query(1, 2, 3))
//	later, _ := client.Execute(ctx, gsdb.Query(1), gsdb.WithFreshness(res.Freshness))
func Query(items ...int) Request {
	ops := make([]Op, len(items))
	for i, it := range items {
		ops[i] = Op{Item: it}
	}
	return Request{Ops: ops, ReadOnly: true}
}
