package core

import (
	"context"
	"errors"
	"fmt"

	"groupsafe/internal/db"
)

// This file is the replica's query fast path: read-only transactions execute
// entirely at one replica on a local MVCC snapshot — no atomic broadcast, no
// certification, no aborts (the paper's split between ordered
// update transactions and local queries; Fig. 2/8 broadcast only transactions
// with writes).  Every replica is therefore a query server, and query
// throughput scales with the number of replicas while update throughput stays
// bounded by the total order.
//
// At the group-communication levels every replica applies the same total
// order, so a read carries a freshness token (the last applied broadcast
// sequence) that clients feed back via Request.MinFreshness for monotonic
// session reads.  The lazy levels have no such sequence and reject a
// freshness floor.

// ErrReadOnlyWrites is returned when a request declared ReadOnly contains a
// write operation or a Compute hook (which could emit one).
var ErrReadOnlyWrites = errors.New("core: read-only transaction contains write operations")

// executeReadOnly serves one query at this replica from an MVCC snapshot.
// The caller has already verified the request cannot write.
func (r *Replica) executeReadOnly(ctx context.Context, req Request) (Result, error) {
	level, err := r.effectiveLevel(req)
	if err != nil {
		return Result{}, err
	}
	rt, token, err := r.beginSnapshot(ctx, req.MinFreshness)
	if err != nil {
		return Result{}, err
	}
	defer rt.Close()

	readVals := make(map[int]int64, len(req.Ops))
	for _, op := range req.Ops {
		v, err := rt.Read(op.Item)
		if err != nil {
			// Only an item outside the database fails a snapshot read.
			return Result{}, fmt.Errorf("%w: read item %d: %w", ErrNotFound, op.Item, err)
		}
		readVals[op.Item] = v
	}

	r.mu.Lock()
	r.stats.Queries++
	r.stats.Committed++ // queries always commit
	r.mu.Unlock()
	return Result{
		TxnID:      req.ID,
		Outcome:    OutcomeCommitted,
		ReadValues: readVals,
		Delegate:   r.cfg.ID,
		Level:      level,
		Freshness:  token,
	}, nil
}

// beginSnapshot is the prologue of every snapshot read — a query, the
// router's per-partition reads, an update's optimistic read phase: the
// freshness floor, the freshness token, then the MVCC snapshot.  The floor
// waits, bounded by the default ExecTimeout when ctx has no deadline.  The
// token is sampled BEFORE the snapshot: lastAppliedSeq only advances after a
// delivery's installs are visible, so the snapshot is guaranteed to contain
// every transaction the token claims.
func (r *Replica) beginSnapshot(ctx context.Context, minFreshness uint64) (*db.ReadTxn, uint64, error) {
	if minFreshness > 0 {
		if !r.cfg.Level.UsesGroupCommunication() {
			return nil, 0, r.errNoFreshnessSequence()
		}
		ctx, cancel := r.withDefaultTimeout(ctx)
		err := r.waitFreshness(ctx, minFreshness)
		cancel()
		if err != nil {
			return nil, 0, err
		}
	}
	token := r.LastAppliedSeq()
	rt, err := r.dbase.BeginRead()
	if err != nil {
		return nil, 0, ErrCrashed
	}
	return rt, token, nil
}

// errNoFreshnessSequence is the shared rejection for freshness floors on
// paths without a totally-ordered, cross-replica-comparable sequence.
func (r *Replica) errNoFreshnessSequence() error {
	return fmt.Errorf("%w: freshness floors need a totally-ordered sequence; level %v has no comparable sequence", ErrSafetyUnavailable, r.cfg.Level)
}

// waitFreshness blocks until the replica has applied broadcast sequence min,
// or until ctx/crash ends the wait.  The wait parks on the freshness gate's
// ordered min-heap: the delivery that first satisfies the floor closes this
// waiter's channel and nobody else's (no thundering herd — see freshgate.go).
func (r *Replica) waitFreshness(ctx context.Context, min uint64) error {
	ch, ok := r.fresh.subscribe(min)
	if ok {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-r.crashCh:
		return ErrCrashed
	case <-ctx.Done():
		return ctxWaitError(ctx, 0, fmt.Sprintf("waiting for freshness %d (applied %d)", min, r.fresh.appliedSeq()))
	}
}

// advanceAppliedSeq raises the applied watermark and wakes exactly the
// freshness waiters the new sequence satisfies.  Safe with or without r.mu
// held (the gate has its own leaf lock).
func (r *Replica) advanceAppliedSeq(seq uint64) { r.fresh.advance(seq) }
