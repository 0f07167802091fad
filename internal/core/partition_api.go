package core

import (
	"context"
	"fmt"
	"time"
)

// This file is the per-partition API consumed by the partition router
// (internal/partition): snapshot reads with versions for the router-side read
// phase, and the submit primitives of the ordered two-phase commit.  Each
// method runs on ONE partition's replica; the router composes them across
// partitions.  Single-partition deployments never call anything here.

// ResolveLevel resolves the externalisation safety level for a per-request
// override against this replica's machinery (see
// effectiveLevel); nil means the cluster's configured level.
func (r *Replica) ResolveLevel(override *SafetyLevel) (SafetyLevel, error) {
	return r.effectiveLevel(Request{Safety: override})
}

// SnapshotReads reads the given items from one MVCC snapshot of this replica,
// returning the values, the observed versions (the certification read set of
// the router-side read phase), and the freshness token sampled before the
// snapshot.  minFreshness imposes the usual floor; maxStaleness imposes the
// bounded-staleness lease (ErrTooStale when this partition replica cannot
// prove it is within the bound).  countQuery selects whether the read is
// accounted as a served query (the read-only fan-out path) or as the
// invisible read phase of an update transaction.
func (r *Replica) SnapshotReads(ctx context.Context, items []int, minFreshness uint64, maxStaleness time.Duration, countQuery bool) (values map[int]int64, versions map[int]uint64, token uint64, err error) {
	if r.Crashed() {
		return nil, nil, 0, ErrCrashed
	}
	rt, token, err := r.beginSnapshot(ctx, minFreshness, maxStaleness)
	if err != nil {
		return nil, nil, 0, err
	}
	defer rt.Close()
	values = make(map[int]int64, len(items))
	versions = make(map[int]uint64, len(items))
	for _, it := range items {
		v, ver, err := rt.ReadVersioned(it)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("core: read item %d: %w", it, err)
		}
		values[it] = v
		if _, seen := versions[it]; !seen {
			versions[it] = ver
		}
	}
	if countQuery {
		r.mu.Lock()
		r.stats.Queries++
		r.stats.Committed++
		r.mu.Unlock()
	}
	return values, versions, token, nil
}

// SubmitCertified broadcasts one already-executed sub-transaction (read
// versions plus write set, as produced by the router's read phase) through
// this partition's total order and waits for its certification outcome at the
// given safety level.  It is the single-participant fast path of a decomposed
// transaction: the payload is the normal certification payload, so the
// partition treats it exactly like a locally delegated update.
func (r *Replica) SubmitCertified(ctx context.Context, gid uint64, level SafetyLevel, readVers map[int]uint64, writes map[int]int64) (Outcome, uint64, uint64, error) {
	if r.Crashed() {
		return OutcomePending, 0, 0, ErrCrashed
	}
	r.mu.Lock()
	r.stats.Executed++
	r.mu.Unlock()
	payload := encodeTxnPayload(phaseNone, gid, r.cfg.ID, level, 0, readVers, writes)
	out, err := r.submitAndWait(ctx, waiterKey{txnID: gid}, payload, level)
	if err != nil {
		return OutcomePending, 0, 0, err
	}
	return out.outcome, uint64(out.lsn), out.seq, nil
}

// SubmitPrepare broadcasts the prepare of one cross-partition sub-transaction
// through this partition's total order and waits for the partition's vote:
// OutcomeCommitted means certified and staged in-doubt (vote yes),
// OutcomeAborted means the certification failed (vote no).  coord names the
// coordinator partition whose decide record will resolve the transaction.
func (r *Replica) SubmitPrepare(ctx context.Context, gid uint64, level SafetyLevel, coord int, readVers map[int]uint64, writes map[int]int64) (Outcome, uint64, error) {
	if r.Crashed() {
		return OutcomePending, 0, ErrCrashed
	}
	r.mu.Lock()
	r.stats.Executed++
	r.mu.Unlock()
	payload := encodeTxnPayload(phasePrepare, gid, r.cfg.ID, level, coord, readVers, writes)
	out, err := r.submitAndWait(ctx, waiterKey{txnID: gid, vote: true}, payload, level)
	if err != nil {
		return OutcomePending, 0, err
	}
	return out.outcome, out.seq, nil
}

// SubmitDecide broadcasts the decision for a prepared cross-partition
// transaction through this partition's total order and waits until it is
// processed.  The returned outcome is the decision actually recorded — the
// first decision for a gid wins, so a caller racing the presumed-abort
// resolver learns the authoritative outcome from the return value and must
// propagate THAT to the remaining participants.  For commit decisions, writes
// carries this partition's share of the write set so a participant replica
// without a local prepare still installs it.
func (r *Replica) SubmitDecide(ctx context.Context, gid uint64, level SafetyLevel, commit bool, writes map[int]int64) (Outcome, uint64, uint64, error) {
	if r.Crashed() {
		return OutcomePending, 0, 0, ErrCrashed
	}
	phase := byte(phaseDecideAbort)
	if commit {
		phase = phaseDecideCommit
	}
	payload := encodeTxnPayload(phase, gid, r.cfg.ID, level, 0, nil, writes)
	out, err := r.submitAndWait(ctx, waiterKey{txnID: gid}, payload, level)
	if err != nil {
		return OutcomePending, 0, 0, err
	}
	return out.outcome, uint64(out.lsn), out.seq, nil
}
