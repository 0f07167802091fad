package core

import (
	"context"
	"errors"
	"fmt"

	"groupsafe/internal/gcs/transport"
	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
	"groupsafe/internal/workload"
)

// This file is the replica's replicated-update plumbing: the ordered
// delivery drain loops, the submit/notify plumbing between a delegate's
// Execute call and the apply goroutine, and the externalisation step that
// reports outcomes to clients and issues end-to-end acknowledgements.  What
// is broadcast and how a delivery commits is certification's
// (technique_cert.go).

// applyItem is one totally-ordered delivery handed to the batched apply loop.
// For end-to-end deliveries ack is non-nil and signals successful delivery,
// and lsn is where the pump logged the message, without forcing.
type applyItem struct {
	seq     uint64
	payload []byte
	ack     func()
	lsn     wal.LSN
}

// batchForce collects how far one applied batch must force the replica's log
// before externalize — one force for message and commit records together —
// and whether at all: pure group-safe batches on a classical cluster do not
// (durability stays with the group).
type batchForce struct {
	lsn  wal.LSN
	need bool
}

// note folds in one processed delivery: its message record, stable before
// anything about it is externalised (a response of either outcome, a
// very-safe acknowledgement, the end-to-end ack), and its commit or prepare
// record (zero: nothing staged), stable when its level forces on commit.
func (f *batchForce) note(item applyItem, commitLSN wal.LSN, level SafetyLevel) {
	if mutationSkip2SafeForce && level == Safety2 {
		return
	}
	f.lsn = max(f.lsn, item.lsn, commitLSN)
	if item.lsn > 0 || commitLSN > 0 && level.SyncOnCommit() {
		f.need = true
	}
}

// maxApplyBatch bounds how many deliveries are applied under one force.
const maxApplyBatch = 256

// drainUpTo collects first plus every value already queued on ch, up to max
// elements, without blocking.
func drainUpTo[T any](ch <-chan T, first T, max int) []T {
	batch := []T{first}
	for len(batch) < max {
		select {
		case v := <-ch:
			batch = append(batch, v)
		default:
			return batch
		}
	}
	return batch
}

// applyState is the apply-pipeline state of a replica's apply goroutine: the
// reusable batch arenas that make the steady-state apply path
// allocation-free.  It is owned by that goroutine alone — a recovered
// replica is a new Replica with a fresh applyState, so a straggling
// pre-crash apply loop can never share arenas with its successor.
type applyState struct {
	staged    []stagedTxn       // outcomes of the current batch, delivery order
	batchRecs []txnRecord       // decode arena, one slot per batch position
	tasks     [][]storage.Write // committed write sets, installed in order
	certBumps map[int]uint64    // per-item version bumps staged by this batch
	readItems []int             // scratch for prepared-lock conflict checks
}

func newApplyState() *applyState {
	return &applyState{certBumps: make(map[int]uint64)}
}

// stagedTxn is one processed delivery of the current batch, ready to be
// externalised once the batch force and installs complete.  level is the
// transaction's own externalisation level (decoded from the payload), lsn
// the local WAL position of its commit record (zero when nothing was staged).
type stagedTxn struct {
	item     applyItem
	txnID    uint64
	delegate string
	level    SafetyLevel
	outcome  Outcome
	vote     bool // a 2PC prepare vote, not a final transaction outcome
	lsn      wal.LSN
}

// waiterKey names what a submitter waits for.  A cross-partition prepare and
// the decide that resolves it travel under the same gid, so the id alone does
// not say which delivery answers which caller: vote marks the waiter of a
// prepare's vote (stagedTxn.vote), its absence the waiter of a final outcome.
type waiterKey struct {
	txnID uint64
	vote  bool
}

// txnOutcome is what the apply goroutine hands back to a waiting Execute
// call: the certified outcome, the local commit-record LSN, the delivery
// sequence (the transaction's own position in the total order, reported to
// clients as the Result.Freshness token).
type txnOutcome struct {
	outcome Outcome
	lsn     wal.LSN
	seq     uint64
}

// applyLoop consumes the replica's ordered deliveries — the classical
// atomic broadcast's, or the end-to-end broadcast's, whose items carry the
// ack that signals successful delivery (Sect. 4.2) — draining every delivery
// already queued so the whole batch is applied with a single log force and
// one bookkeeping lock round.  End-to-end acks follow the batch force, so a
// crash mid-batch has externalised nothing and recovery replays the
// unacknowledged messages the log holds (apply is idempotent).
//
// When the crash signal races a pending delivery, the queued suffix is
// deliberately DISCARDED, never applied (one-by-one or otherwise): crashCh
// closes when Crash or Close ends the replica's life, and a crashed process
// losing its delivered-but-unprocessed messages is exactly the paper's
// Fig. 5 window — classical levels recover them by state transfer,
// end-to-end levels replay the ones whose records were forced; the rest
// were never answered.  Applying them here would
// externalise work a crashed process cannot have done.  A batch already
// inside applyBatch when the race happens is likewise abandoned at the next
// Crashed check.
func applyLoop[D any](r *Replica, st *applyState, deliveries <-chan D, item func(D) applyItem) {
	for {
		select {
		case <-r.crashCh:
			return
		case d := <-deliveries:
			ds := drainUpTo(deliveries, d, maxApplyBatch)
			batch := make([]applyItem, len(ds))
			for i, dd := range ds {
				batch[i] = item(dd)
			}
			r.applyMu.Lock()
			r.applyBatch(st, batch)
			r.applyMu.Unlock()
		}
	}
}

// deliveryGate is the per-delivery crash check inside a batch (a crashed
// replica abandons its batch); it also snapshots the test deliver hook under
// the same lock.
func (r *Replica) deliveryGate() (hook func(txnID uint64), live bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deliverHook, !r.Crashed()
}

func (r *Replica) broadcast(payload []byte) error {
	if r.e2eb != nil {
		_, err := r.e2eb.Broadcast(payload)
		return err
	}
	if r.ab != nil {
		_, err := r.ab.Broadcast(payload)
		return err
	}
	return fmt.Errorf("core: level %v does not use group communication", r.cfg.Level)
}

func (r *Replica) countOutcome(o Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if o == OutcomeCommitted {
		r.stats.Committed++
	} else if o == OutcomeAborted {
		r.stats.Aborted++
	}
}

// effectiveLevel resolves the safety level one transaction is externalised
// at: the cluster's configured level, or the request's per-transaction
// override.  An override is checked against the machinery this cluster was
// actually built with:
//
//   - a level outside AllLevels is never honoured;
//   - on a group-communication cluster every transaction rides the broadcast,
//     so levels weaker than group-safe are canonicalised up to it;
//   - 2-safe needs the end-to-end message log, which only exists when the
//     cluster itself was opened 2-safe or very-safe;
//   - very-safe is honoured on ANY group-communication cluster: its
//     every-server-logged guarantee is enforced by explicit per-replica
//     acknowledgements, which are transport-independent.  Liveness caveat:
//     the wait ends only when every member acked.  On an end-to-end cluster
//     (2-safe/very-safe) a recovering replica replays logged deliveries and
//     acks then; on a classical-broadcast cluster a replica that crashed
//     before delivery recovers by state transfer WITHOUT replay, so its ack
//     never arrives and the waiter ends in ErrTimeout even though the
//     transaction committed cluster-wide — the paper's very-safe blocks
//     while any site is down, and this implementation inherits that;
//   - on a non-group cluster (0-safe, lazy) no alternative response point
//     exists, so only the cluster's own level is accepted.
func (r *Replica) effectiveLevel(req Request) (SafetyLevel, error) {
	base := r.cfg.Level
	if req.Safety == nil {
		return base, nil
	}
	lvl := *req.Safety
	if lvl < Safety0 || lvl > VerySafe {
		return 0, fmt.Errorf("%w: unknown safety level %v", ErrSafetyUnavailable, lvl)
	}
	if !base.UsesGroupCommunication() {
		if lvl != base {
			return 0, fmt.Errorf("%w: cluster runs %v without group communication; cannot honour per-transaction %v", ErrSafetyUnavailable, base, lvl)
		}
		return base, nil
	}
	if !lvl.UsesGroupCommunication() {
		lvl = GroupSafe
	}
	if lvl == Safety2 && !base.RequiresEndToEnd() {
		return 0, fmt.Errorf("%w: 2-safe needs the end-to-end message log; open the cluster at 2-safe or very-safe", ErrSafetyUnavailable)
	}
	return lvl, nil
}

// ctxWaitError translates a context expiry into the engine's error taxonomy:
// a deadline becomes an ErrTimeout that still wraps ctx.Err(), a cancellation
// surfaces context.Canceled directly — both remain errors.Is-able.
func ctxWaitError(ctx context.Context, txnID uint64, phase string) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Errorf("%w: txn %d %s: %w", ErrTimeout, txnID, phase, ctx.Err())
	}
	return fmt.Errorf("core: txn %d %s: %w", txnID, phase, ctx.Err())
}

// withDefaultTimeout applies the replica's ExecTimeout as a default deadline
// when the caller's context does not carry one.  ExecTimeout is only a
// default: a context deadline or cancellation always wins.
func (r *Replica) withDefaultTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, r.cfg.ExecTimeout)
}

// submitAndWait registers the transaction's notification channel, broadcasts
// the payload through the group communication stack, and blocks until the
// apply goroutine reports the outcome of the delivery key names (a 2PC
// prepare is answered by its vote and never by a decide's outcome, nor the
// other way round) — plus, when the transaction's level is
// very-safe, until every server (available or not) has acknowledged it.  It
// is the shared submit path of one-shot and cross-partition transactions.
//
// The waiter is deregistered on EVERY exit path (the deferred cleanup),
// including context cancellation and deadline expiry: a cancelled Execute
// must not leak its pending-outcome entry until some later delivery happens
// to garbage-collect it.  A delivery racing the deregistration is harmless —
// externalize sends non-blocking into the buffered channel and treats a
// missing entry as "no local waiter".
func (r *Replica) submitAndWait(ctx context.Context, key waiterKey, payload []byte, level SafetyLevel) (txnOutcome, error) {
	ctx, cancel := r.withDefaultTimeout(ctx)
	defer cancel()

	txnID := key.txnID
	outcomeCh := make(chan txnOutcome, 1)
	var veryDone chan struct{}
	r.mu.Lock()
	r.pending[key] = outcomeCh
	if level == VerySafe {
		veryDone = make(chan struct{})
		r.veryDone[txnID] = veryDone
		r.veryAcks[txnID] = make(map[string]bool)
	}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		delete(r.pending, key)
		delete(r.veryDone, txnID)
		delete(r.veryAcks, txnID)
		r.mu.Unlock()
	}()

	// A context cancelled before the broadcast aborts the submission outright:
	// nothing has left this replica yet.
	if err := ctx.Err(); err != nil {
		return txnOutcome{}, ctxWaitError(ctx, txnID, "before broadcast")
	}
	if err := r.broadcast(payload); err != nil {
		return txnOutcome{}, fmt.Errorf("core: broadcast: %w", err)
	}

	var out txnOutcome
	select {
	case out = <-outcomeCh:
	case <-r.crashCh:
		return txnOutcome{}, ErrCrashed
	case <-ctx.Done():
		return txnOutcome{}, ctxWaitError(ctx, txnID, "waiting for the outcome")
	}

	// Very-safe: additionally wait until every server (not just the available
	// ones) has acknowledged the transaction.
	if level == VerySafe && out.outcome == OutcomeCommitted {
		select {
		case <-veryDone:
		case <-r.crashCh:
			return txnOutcome{}, ErrCrashed
		case <-ctx.Done():
			return txnOutcome{}, ctxWaitError(ctx, txnID, "waiting for very-safe acks")
		}
	}
	return out, nil
}

// externalize is the final phase of applyBatch: it runs strictly after the
// batch force and every install, so nothing here can be observed for a
// transaction that is not durable according to the safety level.
// Bookkeeping for the whole batch happens under a single lock acquisition,
// then delegates are notified, very-safe acknowledgements are recorded or
// sent, and end-to-end deliveries are acknowledged.
func (r *Replica) externalize(staged []stagedTxn) {
	r.mu.Lock()
	notifyCh := make([]chan txnOutcome, len(staged))
	for i, a := range staged {
		r.stats.Delivered++
		r.advanceAppliedSeq(a.item.seq)
		if r.cfg.RecordApplied {
			r.appliedLog = append(r.appliedLog, AppliedRecord{
				Seq: a.item.seq, TxnID: a.txnID, Outcome: a.outcome, Level: a.level, Vote: a.vote,
			})
		}
		if ch, ok := r.pending[waiterKey{txnID: a.txnID, vote: a.vote}]; ok {
			notifyCh[i] = ch
		}
	}
	r.mu.Unlock()

	for i, a := range staged {
		if ch := notifyCh[i]; ch != nil {
			select {
			case ch <- txnOutcome{outcome: a.outcome, lsn: a.lsn, seq: a.item.seq}:
			default:
			}
			r.countOutcome(a.outcome)
			if a.level == VerySafe && a.outcome == OutcomeCommitted {
				r.recordVerySafeAck(a.txnID, r.cfg.ID)
			}
		} else if a.level == VerySafe && a.outcome == OutcomeCommitted {
			// Very-safe (the transaction's own level, which may be a
			// per-request override): every replica confirms to the delegate
			// that the transaction is logged locally (and, batched, durably
			// forced — the batch force ran before externalize).
			// Counted before the send: the delegate may release the response
			// before Send returns, and the count must not trail it.
			ackBytes := encodeVerySafeAck(a.txnID, r.cfg.ID)
			r.mu.Lock()
			r.stats.AcksSent++
			r.mu.Unlock()
			if r.router.Send(a.delegate, transport.Message{Type: msgAck, Payload: ackBytes}) != nil {
				r.mu.Lock()
				r.stats.AcksSent--
				r.mu.Unlock()
			}
		}
		if a.item.ack != nil {
			a.item.ack()
		}
	}
}

// writesInRange reports whether every written item exists, so staging never
// logs a write set the store would refuse to install.
func writesInRange(writes []storage.Write, numItems int) bool {
	for _, w := range writes {
		if w.Item < 0 || w.Item >= numItems {
			return false
		}
	}
	return true
}

// requestMayWrite reports whether the request can update the database: it
// contains a write operation, or a Compute hook that could emit one.
func requestMayWrite(req Request) bool {
	if req.Compute != nil {
		return true
	}
	for _, op := range req.Ops {
		if op.Write {
			return true
		}
	}
	return false
}

// onVerySafeAck records a per-replica acknowledgement at the delegate.
func (r *Replica) onVerySafeAck(m transport.Message) {
	if txnID, replica, err := decodeVerySafeAck(m.Payload); err == nil {
		r.recordVerySafeAck(txnID, replica)
	}
}

func (r *Replica) recordVerySafeAck(txnID uint64, replica string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	acks, ok := r.veryAcks[txnID]
	if !ok {
		return
	}
	acks[replica] = true
	if len(acks) == len(r.cfg.Members) {
		if done, ok := r.veryDone[txnID]; ok {
			select {
			case <-done:
			default:
				close(done)
			}
		}
	}
}

// Execute a request built from a workload transaction.  Transactions without
// writes are declared ReadOnly, so they take the snapshot fast path and fail
// loudly if a write ever sneaks into a generated query.
func RequestFromWorkload(t workload.Transaction) Request {
	return Request{ID: 0, Ops: t.Ops, ReadOnly: t.ReadOnly()}
}
