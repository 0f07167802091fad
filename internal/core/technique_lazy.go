package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"groupsafe/internal/gcs/transport"
	"groupsafe/internal/workload"
)

// lazyPrimaryTechnique is lazy primary-copy replication, the classical
// 1-safe scheme the paper argues against (Sect. 3, Table 1): update
// transactions execute only at the primary (the first member of the group),
// which runs them under strict 2PL, forces its log, answers the client, and
// only then ships the write set to the secondaries — asynchronously, off the
// response path.  Because a single site orders all updates there are no
// multi-master conflicts (unlike the Safety1Lazy update-everywhere
// baseline), but a primary crash after the acknowledgement and before the
// propagation loses the transaction: the 1-safe window group-safety closes.
//
// Read-only transactions may execute at any replica, against possibly-stale
// committed state.
type lazyPrimaryTechnique struct{}

// lazyItem is one queued asynchronous write-set propagation.  ready is
// closed once the local commit outcome is known; skip is set (before the
// close) when the commit failed, so the drainer must not ship the payload.
type lazyItem struct {
	payload []byte
	due     time.Time
	ready   chan struct{}
	skip    bool
}

// ID implements Technique.
func (lazyPrimaryTechnique) ID() TechniqueID { return TechLazyPrimary }

func (lazyPrimaryTechnique) usesGroupComm(SafetyLevel) bool { return false }

func (lazyPrimaryTechnique) checkLevel(level SafetyLevel) (SafetyLevel, error) {
	if level.UsesGroupCommunication() {
		return 0, fmt.Errorf("core: lazy primary-copy does not use group communication; safety level %v is incompatible (the technique is 1-safe)", level)
	}
	// The technique is inherently 1-safe: the primary forces its commit
	// record before answering the client.  The 0-safe zero value is
	// canonicalised rather than kept, so Result.Level reports the guarantee
	// actually provided.
	return Safety1Lazy, nil
}

func (t lazyPrimaryTechnique) execute(ctx context.Context, r *Replica, req Request) (Result, error) {
	if !r.IsPrimary() && requestMayWrite(req) {
		return Result{}, fmt.Errorf("%w (primary is %s)", ErrNotPrimary, r.cfg.Members[0])
	}
	return r.executeLocal(ctx, req)
}

// applyBatch is never reached: the technique does not use group
// communication, so no apply loop is started.
func (lazyPrimaryTechnique) applyBatch(*Replica, *applyState, []applyItem) {}

// executeLocal implements purely local execution with asynchronous write-set
// propagation: the 0-safe and lazy (1-safe) baselines of the certification
// technique, and the whole of lazy primary-copy.  The transaction runs
// entirely at this replica under strict 2PL; the write set is pushed to the
// other replicas asynchronously, after the client response.  The local path
// has a single response point, so a per-request safety override must resolve
// to the cluster's own level (effectiveLevel rejects anything else).
//
// The caller's context (or the ExecTimeout default) bounds the whole local
// execution, 2PL lock waits included: a watcher goroutine externally aborts
// the transaction's lock acquisition when ctx expires, so an Execute stuck
// behind a conflicting lock returns promptly with the context error.  The
// watcher and the commit path arbitrate through one atomic gate — Abort
// revokes every held lock, which must never happen once Commit has started
// appending records, so whichever side wins the CAS excludes the other.
// Once the commit sequence has begun, the disk force runs to completion
// regardless of ctx.
func (r *Replica) executeLocal(ctx context.Context, req Request) (Result, error) {
	level, err := r.effectiveLevel(req)
	if err != nil {
		return Result{}, err
	}
	// No totally-ordered sequence exists on the local paths, so a freshness
	// floor cannot be honoured (same rule as executeReadOnly).
	if req.MinFreshness > 0 {
		return Result{}, r.errNoFreshnessSequence()
	}
	ctx, cancel := r.withDefaultTimeout(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return Result{}, ctxWaitError(ctx, req.ID, "before local execution")
	}
	dbase := r.dbase
	txn, err := dbase.Begin(req.ID)
	if err != nil {
		return Result{}, fmt.Errorf("core: begin: %w", err)
	}

	const (
		gateRunning    int32 = 0
		gateCommitting int32 = 1
		gateCtxAborted int32 = 2
	)
	var gate atomic.Int32
	watchDone := make(chan struct{})
	watcherExit := make(chan struct{})
	defer close(watchDone)
	go func() {
		defer close(watcherExit)
		select {
		case <-ctx.Done():
			if gate.CompareAndSwap(gateRunning, gateCtxAborted) {
				dbase.AbortWaiting(req.ID)
			}
		case <-watchDone:
		}
	}()
	readVals := make(map[int]int64)
	runOps := func(ops []workload.Op) error {
		for _, op := range ops {
			if op.Write {
				if err := txn.Write(op.Item, op.Value); err != nil {
					return err
				}
				continue
			}
			v, err := txn.Read(op.Item)
			if err != nil {
				return err
			}
			readVals[op.Item] = v
		}
		return nil
	}
	err = runOps(req.Ops)
	if err == nil && req.Compute != nil {
		err = runOps(req.Compute(readVals))
	}
	if err != nil {
		_ = txn.Abort()
		if !gate.CompareAndSwap(gateRunning, gateCommitting) {
			// The watcher externally aborted us (the error is the lock
			// manager's ErrAborted, or a genuine abort that raced the
			// expiry): report the context error, not an abort outcome.
			// Wait for the watcher first — ForgetTxn must run after its
			// AbortWaiting, or the lock manager's aborted mark leaks.
			<-watcherExit
			dbase.ForgetTxn(req.ID)
			return Result{}, ctxWaitError(ctx, req.ID, "during local execution")
		}
		r.countOutcome(OutcomeAborted)
		return Result{TxnID: req.ID, Outcome: OutcomeAborted, Delegate: r.cfg.ID, Level: level}, nil
	}
	ws := txn.WriteSet()

	// Claim the gate before the commit sequence: from here on the watcher
	// can no longer revoke the 2PL locks.
	if !gate.CompareAndSwap(gateRunning, gateCommitting) {
		_ = txn.Abort()
		<-watcherExit // ForgetTxn strictly after the watcher's AbortWaiting
		dbase.ForgetTxn(req.ID)
		return Result{}, ctxWaitError(ctx, req.ID, "before local commit")
	}

	// Reserve the propagation slot BEFORE Commit releases the 2PL locks: a
	// conflicting transaction is still blocked in its Write call at this
	// point, so conflicting write sets enqueue in commit order and the
	// single drainer ships them in that order — secondaries converge to the
	// delegate's state instead of racing per-transaction goroutines
	// (last-writer-wins on the wire would otherwise let a stale write set
	// overtake a newer one and diverge permanently).  Disjoint write sets
	// may enqueue in either order; they commute.  The payload only becomes
	// send-ready once Commit has succeeded — the drainer must never ship a
	// write set the delegate did not durably commit.
	var it *lazyItem
	if len(ws) > 0 {
		it = r.enqueueLazy(encodePayload(lazyPayload{TxnID: req.ID, Delegate: r.cfg.ID, Writes: ws}))
	}
	if err := txn.Commit(); err != nil {
		if it != nil {
			it.skip = true
			close(it.ready)
		}
		return Result{}, fmt.Errorf("core: commit: %w", err)
	}
	if it != nil {
		close(it.ready)
	}
	r.countOutcome(OutcomeCommitted)
	return Result{TxnID: req.ID, Outcome: OutcomeCommitted, ReadValues: readVals, Delegate: r.cfg.ID, Level: level, CommitLSN: uint64(txn.CommitLSN())}, nil
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

// onLazy applies a lazily-propagated write set: no certification, last
// writer wins.  Under update-everywhere lazy replication (Safety1Lazy) this
// is the source of the inconsistencies the paper attributes to lazy
// replication; under primary-copy a single site orders all updates, so the
// secondaries converge to the primary's state.
func (r *Replica) onLazy(m transport.Message) {
	if r.Crashed() {
		return
	}
	var p lazyPayload
	if err := decodePayload(m.Payload, &p); err != nil {
		return
	}
	r.applyMu.Lock()
	_, err := r.dbase.ApplyWriteSet(p.TxnID, writeSetOf(p.Writes))
	r.applyMu.Unlock()
	if err != nil {
		return
	}
	r.mu.Lock()
	r.stats.LazyApply++
	r.mu.Unlock()
}
