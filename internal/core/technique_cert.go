package core

import (
	"context"
	"fmt"

	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
	"groupsafe/internal/workload"
)

// This file is the certification-based database state machine — the
// paper's own replication protocol (Sects. 2, 4, 5).  Update transactions
// execute optimistically at their delegate under no locks, the read versions
// and the write set are atomically broadcast, and every replica runs the
// same deterministic first-updater-wins certification test in delivery
// order.  Conflicting concurrent transactions abort; disjoint ones commit
// with one broadcast and zero remote execution.
//
// At the Safety0 and Safety1Lazy levels the protocol degrades to the
// paper's baselines: purely local execution with asynchronous (lazy)
// write-set propagation — see executeLocal in technique_lazy.go.

// executeReplicated implements the group-communication based levels
// (group-safe, group-1-safe, 2-safe, very-safe): optimistic execution at the
// delegate, atomic broadcast of the read versions and write set, deterministic
// certification at every replica.  Pure queries never reach this function —
// the engine serves them from an MVCC snapshot without any broadcast
// (executeReadOnly); a request routed here has writes (or a Compute hook that
// may emit some), and only its read phase runs on a snapshot.
func (r *Replica) executeReplicated(ctx context.Context, req Request) (Result, error) {
	level, err := r.effectiveLevel(req)
	if err != nil {
		return Result{}, err
	}
	// A freshness floor applies to the read phase regardless of whether the
	// transaction turns out to write (Compute-bearing requests land here
	// even when their hook emits nothing).  The optimistic read phase runs on
	// one MVCC snapshot: the read values form a consistent cut, and each
	// recorded (item, version) pair comes from a single atomic versioned
	// read — the certification read set can never pair a new value with an
	// old version.
	rt, token, err := r.beginSnapshot(ctx, req.MinFreshness)
	if err != nil {
		return Result{}, err
	}
	defer rt.Close()
	readVals := make(map[int]int64)
	readVers := make(map[int]uint64)
	writes := make(map[int]int64)
	run := func(ops []workload.Op) error {
		for _, op := range ops {
			// No replica installs a write outside the database, so a
			// broadcast one would leave this delegate's waiter unanswered.
			if op.Item < 0 || op.Item >= r.cfg.Items {
				return fmt.Errorf("%w: item %d out of range", ErrNotFound, op.Item)
			}
			if op.Write {
				writes[op.Item] = op.Value
				continue
			}
			v, ver, err := rt.ReadVersioned(op.Item)
			if err != nil {
				return fmt.Errorf("core: read item %d: %w", op.Item, err)
			}
			readVals[op.Item] = v
			if _, seen := readVers[op.Item]; !seen {
				readVers[op.Item] = ver
			}
		}
		return nil
	}
	if err := run(req.Ops); err != nil {
		return Result{}, err
	}
	if req.Compute != nil {
		if err := run(req.Compute(readVals)); err != nil {
			return Result{}, err
		}
	}
	// The read phase is over: holding the snapshot through the broadcast
	// round trip would keep every version installed meanwhile unprunable.
	rt.Close()

	// A Compute hook may turn out not to write after all; answer it from the
	// snapshot like any other query (Fig. 2/8: only transactions with writes
	// are broadcast).
	if len(writes) == 0 {
		r.countOutcome(OutcomeCommitted)
		return Result{TxnID: req.ID, Outcome: OutcomeCommitted, ReadValues: readVals, Delegate: r.cfg.ID, Level: level, Freshness: token}, nil
	}

	payload := encodeTxnPayload(phaseNone, req.ID, r.cfg.ID, level, 0, readVers, writes)
	out, err := r.submitAndWait(ctx, waiterKey{txnID: req.ID}, payload, level)
	if err != nil {
		return Result{}, err
	}
	return Result{TxnID: req.ID, Outcome: out.outcome, ReadValues: readVals, Delegate: r.cfg.ID, Level: level, CommitLSN: uint64(out.lsn), Freshness: out.seq}, nil
}

// applyBatch runs the certification apply pipeline on one drained batch of
// totally-ordered deliveries, every step in delivery order:
//
//  1. decode each payload into the reusable arena;
//  2. certify and stage it: certification uses a version overlay (store
//     versions plus the bumps staged earlier in this batch), the write sets
//     and commit records are appended to the log but not yet forced or
//     installed;
//  3. the committed write sets are installed;
//  4. one group-committed force covers every commit record of the batch and,
//     at the end-to-end levels, its message records (the path's only force);
//     a batch with nothing to force skips it;
//  5. only then are delegates notified and end-to-end deliveries
//     acknowledged (r.externalize).
//
// For a batch of B transactions the levels that force on commit pay one disk
// force instead of B.
//
// Crash semantics: a crash mid-batch (the Fig. 5 window) abandons the whole
// batch — commit records already appended for earlier batch members sit in
// the unsynced log tail and are lost with it, like a real group-commit
// system dying before its force.  That is safe under every criterion because
// no outcome has been externalised: delegates are notified and e2e messages
// acknowledged strictly after the batch force, so an unforced transaction
// was never reported committed; end-to-end levels replay the unacknowledged
// messages the log holds (one lost with the tail was answered to nobody, as
// if the crash had come just before its delivery), and classical levels
// recover missed messages by state transfer, as for a single lost delivery.
func (r *Replica) applyBatch(st *applyState, batch []applyItem) {
	if r.Crashed() {
		return
	}

	// Phases 1+2: decode into the reusable arena (installs read the decoded
	// write sets after the loop), certify and stage.
	if cap(st.batchRecs) < len(batch) {
		st.batchRecs = make([]txnRecord, len(batch))
	}
	recs := st.batchRecs[:len(batch)]
	staged := st.staged[:0]
	tasks := st.tasks[:0]
	numItems := r.dbase.Store().NumItems()
	var force batchForce
	for i := range batch {
		hook, live := r.deliveryGate()
		if !live {
			return
		}

		rec := &recs[i]
		if decodeTxnRecord(batch[i].payload, rec) != nil {
			continue
		}

		// The crash window of Fig. 5: the group communication component has
		// delivered the message, the database has not yet processed it.
		if hook != nil {
			hook(rec.TxnID)
			if r.Crashed() {
				return
			}
		}

		var outcome Outcome
		var commitLSN wal.LSN
		switch rec.Phase {
		case phaseNone:
			outcome = certify(r, st, rec)
			// A transaction conflicting with a prepared-but-undecided
			// cross-partition transaction must abort: the prepared one was
			// certified at its prepare and its outcome may not be invalidated
			// by later deliveries.  The atomic HasPrepared gate keeps the
			// unpartitioned hot path free of the check.
			if outcome == OutcomeCommitted && r.dbase.HasPrepared() && preparedConflict(r, st, rec) {
				outcome = OutcomeAborted
			}
			if outcome == OutcomeCommitted {
				if !writesInRange(rec.Writes, numItems) {
					continue
				}
				fresh, lsn, err := r.dbase.StageWrites(rec.TxnID, rec.Writes)
				if err != nil {
					continue
				}
				if fresh {
					commitLSN = lsn
					for _, w := range rec.Writes {
						st.certBumps[w.Item]++
					}
					tasks = append(tasks, rec.Writes)
				}
			} else {
				_ = r.dbase.RecordAbort(rec.TxnID)
			}

		case phasePrepare:
			// Prepare of a cross-partition sub-transaction: certify exactly
			// like a one-shot transaction (version check plus prepared-lock
			// conflicts), then stage the write set with a KindPrepare record
			// instead of a commit.  The reported outcome is this partition's
			// vote; nothing becomes visible until a decide.  A vote-no leaves
			// no trace — the coordinator's abort decision is what gets logged.
			outcome = certify(r, st, rec)
			if outcome == OutcomeCommitted && !writesInRange(rec.Writes, numItems) {
				outcome = OutcomeAborted
			}
			if outcome == OutcomeCommitted && preparedConflict(r, st, rec) {
				outcome = OutcomeAborted
			}
			if outcome == OutcomeCommitted {
				// The decode arena reuses rec's slices across batches, while
				// the prepared-transaction table retains them until the
				// decision: copy.
				readItems := make([]int, len(rec.Reads))
				for j, rv := range rec.Reads {
					readItems[j] = rv.Item
				}
				writes := make([]storage.Write, len(rec.Writes))
				copy(writes, rec.Writes)
				// The prepare record (none, LSN zero, for a replayed prepare) is
				// this partition's vote; levels that force on commit force the
				// vote before it is reported.
				var err error
				if _, commitLSN, err = r.dbase.StagePrepare(rec.TxnID, rec.Coord, readItems, writes); err != nil {
					continue
				}
			}

		case phaseDecideCommit, phaseDecideAbort:
			// Decision for a prepared transaction: first decision wins,
			// replays and late deliveries return the recorded outcome.  The
			// decide payload carries the write set, so a replica that lost
			// its prepare (recovered from a checkpoint) still installs the
			// commit.
			commit := rec.Phase == phaseDecideCommit
			if commit && !writesInRange(rec.Writes, numItems) {
				continue
			}
			committed, install, fresh, lsn, err := r.dbase.DecidePrepared(rec.TxnID, commit, rec.Writes)
			if err != nil {
				continue
			}
			outcome = OutcomeAborted
			if committed {
				outcome = OutcomeCommitted
			}
			if fresh && committed {
				commitLSN = lsn
				for _, w := range install {
					st.certBumps[w.Item]++
				}
				tasks = append(tasks, install)
			}

		default:
			continue
		}
		force.note(batch[i], commitLSN, rec.Level)
		staged = append(staged, stagedTxn{item: batch[i], txnID: rec.TxnID, delegate: rec.Delegate, level: rec.Level, outcome: outcome, vote: rec.Phase == phasePrepare, lsn: commitLSN})
	}
	st.staged, st.tasks = staged, tasks
	// certBumps overlaid this batch only.  Its entries go by key: clear()
	// sweeps the table's whole capacity, which one bulk load grows for good.
	// (A return above abandons the apply state.)
	for _, writes := range tasks {
		for _, w := range writes {
			delete(st.certBumps, w.Item)
		}
	}

	// Phase 3.  InstallWrites cannot fail for staged write sets (ranges are
	// validated by writesInRange before staging and the store size is
	// fixed); if it ever does, the batch is abandoned before anything is
	// externalised and the WAL stays the source of truth — crash recovery
	// reinstalls the logged commits.
	for _, writes := range tasks {
		if r.dbase.InstallWrites(writes) != nil {
			return
		}
	}

	// Phase 4.  The force decision is per-batch (batchForce): ANY transaction
	// at a force-on-commit level (the cluster's, or a per-transaction
	// override riding the payload) or delivered end-to-end forces the whole
	// batch.  Both phases finish before any outcome is externalised.
	if force.need && r.dbase.ForceTo(force.lsn) != nil {
		return
	}

	// Phase 5.
	r.externalize(staged)
}

// certify runs the deterministic certification test (first-updater-wins): the
// transaction aborts if any item it read has been overwritten by a
// transaction delivered before it.  Writes staged earlier in the current
// batch are not yet installed in the store, so their version bumps are
// overlaid from certBumps — the outcome is exactly the one the serial loop
// computed by installing before certifying the next transaction.
func certify(r *Replica, st *applyState, rec *txnRecord) Outcome {
	for _, rv := range rec.Reads {
		if _, ver, _ := r.dbase.ReadVersioned(rv.Item); ver+st.certBumps[rv.Item] > rv.Ver {
			return OutcomeAborted
		}
	}
	return OutcomeCommitted
}

// preparedConflict reports whether rec conflicts with any in-doubt prepared
// cross-partition transaction (shared/exclusive rule; see DB.PreparedConflict).
// The read-item scratch slice lives in the apply state so the check allocates
// nothing in steady state.
func preparedConflict(r *Replica, st *applyState, rec *txnRecord) bool {
	items := st.readItems[:0]
	for _, rv := range rec.Reads {
		items = append(items, rv.Item)
	}
	st.readItems = items
	return r.dbase.PreparedConflict(items, rec.Writes)
}
