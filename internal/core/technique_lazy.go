package core

import (
	"context"
	"fmt"
	"time"

	"groupsafe/internal/db"
	"groupsafe/internal/gcs/transport"
)

// This file is purely local execution with asynchronous write-set
// propagation: the 0-safe and lazy (1-safe) levels, the classical lazy
// replication the paper argues against (Sect. 3, Table 1, the lazy curve of
// Fig. 9).  An update transaction runs its read phase on an MVCC snapshot
// like at every other level, and its delegate certifies it against its own
// store alone (first-updater-wins) and commits it; at 1-safe-lazy the
// delegate forces its log before answering the client (0-safe does not), and
// only then ships the write set to every other replica — asynchronously, off
// the response path.  Every replica accepts updates (update everywhere), so
// conflicting transactions at two delegates can both commit and leave the
// replicas diverged, and a delegate crash after the acknowledgement and
// before the propagation loses the transaction: the 1-safe window
// group-safety closes.

// lazyItem is one queued asynchronous write-set propagation.  ready is
// closed once the local commit outcome is known; skip is set (before the
// close) when the commit failed, so the drainer must not ship the payload.
type lazyItem struct {
	payload []byte
	due     time.Time
	ready   chan struct{}
	skip    bool
}

// executeLocal runs one transaction on the local path: the 0-safe and lazy
// (1-safe) baselines.  The read phase is the one of every level (readPhase);
// the local commit is the certification step of applyBatch, run at this
// replica alone under the apply barrier: validate the read versions, stage
// and install the writes, enqueue the propagation.  The local path has a
// single response point, so a per-request safety override must resolve to
// the cluster's own level (effectiveLevel rejects anything else).  Nothing
// here waits on another transaction; the force at 1-safe-lazy runs to
// completion regardless of ctx.
func (r *Replica) executeLocal(ctx context.Context, req Request) (Result, error) {
	level, err := r.effectiveLevel(req)
	if err != nil {
		return Result{}, err
	}
	readVals, readVers, writes := make(map[int]int64), make(map[int]uint64), make(map[int]int64)
	if _, err := r.readPhase(ctx, req, readVals, readVers, writes); err != nil {
		return Result{}, err
	}
	res := Result{TxnID: req.ID, Outcome: OutcomeCommitted, ReadValues: readVals, Delegate: r.cfg.ID, Level: level}
	if len(writes) == 0 {
		r.countOutcome(OutcomeCommitted)
		return res, nil
	}
	ws := sortedWrites(writes)
	payload := encodeTxnPayload(phaseNone, req.ID, r.cfg.ID, level, 0, nil, writes)

	// Enqueueing the propagation inside the barrier keeps conflicting write
	// sets shipped in commit order, so the single drainer ships them in that
	// order and the secondaries converge to the delegate's state (were they
	// shipped by racing goroutines, a stale write set could overtake a newer
	// one and, last writer winning, diverge for good).  Disjoint write sets
	// commute.  The payload only becomes send-ready once the commit is
	// durable at the level: the drainer must never ship a write set the
	// delegate did not commit.
	r.applyMu.Lock()
	if r.readsOverwritten(readVers) {
		r.applyMu.Unlock()
		r.countOutcome(OutcomeAborted)
		res.Outcome = OutcomeAborted
		return res, nil
	}
	fresh, lsn, err := r.dbase.StageWrites(req.ID, ws)
	if err == nil && !fresh {
		err = fmt.Errorf("%w: txn %d", db.ErrAlreadyApplied, req.ID)
	}
	if err == nil {
		err = r.dbase.InstallWrites(ws)
	}
	if err != nil {
		r.applyMu.Unlock()
		return Result{}, fmt.Errorf("core: commit: %w", err)
	}
	it := r.enqueueLazy(payload)
	r.applyMu.Unlock()

	// Outside the barrier, so disjoint commits share forces.
	if level.SyncOnCommit() {
		if err := r.dbase.ForceTo(lsn); err != nil {
			it.skip = true
			close(it.ready)
			return Result{}, fmt.Errorf("core: force commit: %w", err)
		}
	}
	close(it.ready)
	r.countOutcome(OutcomeCommitted)
	res.CommitLSN = uint64(lsn)
	return res, nil
}

// readsOverwritten applies certify's rule at this replica alone: a read is
// stale once a commit has bumped the item's version past the one it saw.
func (r *Replica) readsOverwritten(readVers map[int]uint64) bool {
	for item, ver := range readVers {
		if _, cur, _ := r.dbase.ReadVersioned(item); cur > ver {
			return true
		}
	}
	return false
}

// enqueueLazy appends a write-set payload to the replica's ordered
// propagation queue and makes sure a drainer goroutine is running.  The
// queue is volatile: a crash drops it (Crash clears the queue and the
// drainer exits), which is exactly the 1-safe window — acknowledged
// transactions whose propagation had not left the delegate are lost.
func (r *Replica) enqueueLazy(payload []byte) *lazyItem {
	it := &lazyItem{
		payload: payload,
		due:     time.Now().Add(r.cfg.LazyPropagationDelay),
		ready:   make(chan struct{}),
	}
	r.mu.Lock()
	r.lazyQueue = append(r.lazyQueue, it)
	start := !r.lazyDraining
	if start {
		r.lazyDraining = true
	}
	r.mu.Unlock()
	if start {
		go r.drainLazy()
	}
	return it
}

// drainLazy ships queued write sets to every other member, strictly in
// enqueue order, honouring each item's propagation-delay deadline.  It runs
// off the client response path (the lazy point) and exits when the queue is
// empty or the replica crashed.
func (r *Replica) drainLazy() {
	for {
		r.mu.Lock()
		if r.Crashed() || len(r.lazyQueue) == 0 {
			r.lazyDraining = false
			r.mu.Unlock()
			return
		}
		it := r.lazyQueue[0]
		r.lazyQueue = r.lazyQueue[1:]
		r.mu.Unlock()

		// Wait until the local commit outcome is known (ready is always
		// closed, by the commit and the abort path alike).
		<-it.ready
		if it.skip {
			continue
		}
		if wait := time.Until(it.due); wait > 0 {
			time.Sleep(wait)
		}
		// Re-check after the waits: the popped item is volatile state, and
		// shipping it after a crash would leak it past the crash.
		if r.Crashed() {
			continue
		}
		for _, m := range r.cfg.Members {
			if m == r.cfg.ID {
				continue
			}
			_ = r.router.Send(m, transport.Message{Type: msgLazy, Payload: it.payload})
		}
	}
}

// onLazy installs a lazily-propagated write set: no certification, last
// writer wins.  Under update-everywhere lazy replication this is the source
// of the inconsistencies the paper attributes to lazy replication.  Levels
// that force on commit force the install before counting it.
func (r *Replica) onLazy(m transport.Message) {
	if r.Crashed() {
		return
	}
	var p txnRecord
	if decodeTxnRecord(m.Payload, &p) != nil || !writesInRange(p.Writes, r.dbase.Store().NumItems()) {
		return
	}
	r.applyMu.Lock()
	fresh, lsn, err := r.dbase.StageWrites(p.TxnID, p.Writes)
	if err == nil && fresh {
		err = r.dbase.InstallWrites(p.Writes)
	}
	r.applyMu.Unlock()
	if err != nil || !fresh {
		return
	}
	if r.cfg.Level.SyncOnCommit() && r.dbase.ForceTo(lsn) != nil {
		return
	}
	r.mu.Lock()
	r.stats.LazyApply++
	r.mu.Unlock()
}
