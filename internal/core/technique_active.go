package core

import (
	"context"
	"fmt"
	"sort"

	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
)

// activeTechnique is active replication (state machine replication proper),
// the first of the total-order-broadcast techniques in Wiesmann & Schiper's
// comparison line: the delegate does not execute anything up front — it
// atomically broadcasts the whole deterministic operation list, and EVERY
// replica executes the transaction in delivery order.  There is no
// certification step and therefore no aborts: determinism plus total order
// already yields one-copy serialisability.  The price is processing power —
// reads and writes run n times instead of once — which is why the paper's
// companion work finds it attractive only for short transactions or small
// groups.
//
// Because a Go closure cannot travel in a broadcast, requests carrying a
// Compute hook are rejected (ErrComputeNotReplicable): active replication
// requires the transaction to be a static, deterministic operation list.
type activeTechnique struct{}

// ID implements Technique.
func (activeTechnique) ID() TechniqueID { return TechActive }

// usesGroupComm: the technique IS total order broadcast; every level runs on
// top of it (the incompatible levels are rejected by checkLevel).
func (activeTechnique) usesGroupComm(SafetyLevel) bool { return true }

func (activeTechnique) checkLevel(level SafetyLevel) (SafetyLevel, error) {
	switch level {
	case Safety0:
		// The zero value means "unset": active replication's natural point
		// in the design space is group-safety (the decision is known as
		// soon as the message is delivered — there is nothing to vote on).
		return GroupSafe, nil
	case Safety1Lazy:
		return 0, fmt.Errorf("core: active replication broadcasts every update transaction; the lazy level %v is incompatible", level)
	default:
		return level, nil
	}
}

func (activeTechnique) execute(ctx context.Context, r *Replica, req Request) (Result, error) {
	// Pure queries never reach the technique — the engine serves them from a
	// local MVCC snapshot with no broadcast (executeReadOnly, the standard
	// active-replication read optimisation; Fig. 2/8 of the paper).
	if req.Compute != nil {
		return Result{}, ErrComputeNotReplicable
	}
	level, err := r.effectiveLevel(req)
	if err != nil {
		return Result{}, err
	}

	payload := encodeOpsPayload(req.ID, r.cfg.ID, level, req.Ops)
	out, err := r.submitAndWait(ctx, waiterKey{txnID: req.ID}, payload, level)
	if err != nil {
		return Result{}, err
	}
	// The read values were produced by this replica's own apply goroutine
	// when it executed the transaction at its delivery position — i.e. they
	// are the reads of the serialisation point, not of an optimistic
	// pre-execution.
	return Result{TxnID: req.ID, Outcome: out.outcome, ReadValues: out.reads, Delegate: r.cfg.ID, Level: level, CommitLSN: uint64(out.lsn), Freshness: out.seq}, nil
}

// applyBatch executes one drained batch of totally-ordered transactions.
// Execution is strictly serial in delivery order — that is the essence of
// active replication (the state machine executes one command at a time).
// Durability batching is kept: each transaction's records are staged without
// a force, its writes are installed immediately (later transactions of the
// batch must read them), and one group-committed force covers the whole
// batch before any outcome is externalised.
//
// Crash semantics are identical to the certification pipeline: nothing is
// externalised before the batch force, a crash mid-batch abandons the batch,
// end-to-end levels replay the unacknowledged suffix (StageWrites's
// exactly-once check makes the replay idempotent), classical levels recover
// by state transfer.
func (activeTechnique) applyBatch(r *Replica, st *applyState, batch []applyItem) {
	if r.Crashed() {
		return
	}
	staged := st.staged[:0]
	numItems := r.dbase.Store().NumItems()
	var force batchForce

	for i := range batch {
		hook, live := r.deliveryGate()
		if !live {
			return
		}
		rec := &st.opsRec
		if err := decodeOpsRecord(batch[i].payload, rec); err != nil {
			continue
		}

		// The crash window of Fig. 5: delivered, not yet processed.
		if hook != nil {
			hook(rec.TxnID)
			if r.Crashed() {
				return
			}
		}

		// Deterministic execution: every replica runs the full operation
		// list.  Reads see the committed store overlaid with the
		// transaction's own earlier writes (read-your-writes); only the
		// delegate keeps the values to answer its client.
		isDelegate := rec.Delegate == r.cfg.ID
		var reads map[int]int64
		if isDelegate {
			reads = make(map[int]int64, len(rec.Ops))
		}
		clear(st.writeVals)
		ok := true
		for _, op := range rec.Ops {
			if op.Item < 0 || op.Item >= numItems {
				ok = false
				break
			}
			if op.Write {
				st.writeVals[op.Item] = op.Value
				continue
			}
			v, seen := st.writeVals[op.Item]
			if !seen {
				var err error
				if v, _, err = r.dbase.ReadVersioned(op.Item); err != nil {
					ok = false
					break
				}
			}
			if isDelegate {
				reads[op.Item] = v
			}
		}
		if !ok {
			// A malformed transaction is dropped deterministically at every
			// replica (same payload, same check), so the copies stay equal.
			continue
		}

		ws := st.writeBuf[:0]
		for item, value := range st.writeVals {
			ws = append(ws, storage.Write{Item: item, Value: value})
		}
		sort.Slice(ws, func(a, b int) bool { return ws[a].Item < ws[b].Item })
		st.writeBuf = ws

		fresh, lsn, err := r.dbase.StageWrites(rec.TxnID, ws)
		if err != nil {
			continue
		}
		var commitLSN wal.LSN
		if fresh {
			commitLSN = lsn
			// Install immediately (serial): the next transaction of the
			// batch may read these items at its serialisation point.
			if err := r.dbase.InstallWrites(ws); err != nil {
				return
			}
		}
		force.note(batch[i], commitLSN, rec.Level)
		staged = append(staged, stagedTxn{item: batch[i], txnID: rec.TxnID, delegate: rec.Delegate, level: rec.Level, outcome: OutcomeCommitted, lsn: commitLSN, reads: reads})
	}
	st.staged = staged

	// One force covers the batch's commit and end-to-end message records when
	// any transaction needs it (batchForce); nothing was externalised before.
	if force.need && r.dbase.ForceTo(force.lsn) != nil {
		return
	}
	r.externalize(staged)
}
