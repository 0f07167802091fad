package core

import (
	"fmt"

	"groupsafe/internal/db"
	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/gcs/e2e"
	"groupsafe/internal/gcs/fd"
	"groupsafe/internal/storage"
)

// This file is the replica's incarnation lifecycle: building and tearing
// down the group communication stack, the crash model (Crash loses volatile
// state, a recovered process is a new process), checkpoint-based state
// transfer and end-to-end message replay.  It is technique-independent: the
// technique only decides whether a broadcaster and apply loop exist at all
// (Technique.usesGroupComm) and what the apply loop does with deliveries.

// startGroupCommunication builds (or rebuilds, after recovery) the router,
// the broadcaster and the applier for the current incarnation.  Callers
// serialise it against stopGroupCommunication with lifeMu (NewReplica runs
// before any concurrency exists).
func (r *Replica) startGroupCommunication() error {
	ep := r.cfg.Network.Endpoint(r.cfg.ID)
	router := gcs.NewRouter(ep)
	router.Handle(msgLazy, r.onLazy)
	router.Handle(msgAck, r.onVerySafeAck)

	r.incarnation++
	stop := make(chan struct{})
	var (
		ab   *abcast.Broadcaster
		e2eb *e2e.Broadcaster
		det  *fd.Detector
	)

	if r.tech.usesGroupComm(r.cfg.Level) {
		var err error
		ab, err = abcast.New(abcast.Config{
			Self:        r.cfg.ID,
			Members:     r.cfg.Members,
			Incarnation: r.cfg.IncarnationBase + uint64(r.incarnation),
			// Advertised freshness rides the existing ACK/ORDER traffic:
			// every broadcast-layer message stamps the sender's applied
			// watermark, and received stamps feed the peer-advert cache
			// backing freshness-aware routing and staleness leases.
			AdvertiseSeq: r.LastAppliedSeq,
			OnPeerAdvert: r.notePeerApplied,
		}, router)
		if err != nil {
			return err
		}
		if r.cfg.Level.RequiresEndToEnd() {
			// Messages go into the database's log unforced: the apply loop's
			// one force per batch (batchForce) covers them with the commits.
			e2eb, err = e2e.Wrap(ab, e2e.Config{Log: r.cfg.DBLog, ConsumerForces: true})
			if err != nil {
				return err
			}
		}
		if onEvent := r.cfg.OnDetectorEvent; onEvent != nil {
			// The detector runs exactly when someone listens to it.
			detCfg := r.cfg.Detector
			// Heartbeats double as freshness adverts (the membership path
			// for the server build, where ACK traffic pauses under an idle
			// or partitioned workload).
			detCfg.Annotate = r.LastAppliedSeq
			detCfg.OnAnnotation = r.notePeerApplied
			det = fd.New(r.cfg.ID, r.cfg.Members, router, detCfg)
			router.Handle(fd.MsgHeartbeat, det.OnMessage)
			det.OnEvent(func(ev fd.Event) {
				if ev.Suspected {
					ab.Suspect(ev.Peer)
				} else {
					ab.Unsuspect(ev.Peer)
				}
				onEvent(ev)
			})
		}
	}

	// Publish the new incarnation's stack under mu: concurrent readers
	// (broadcast, Suspect, BroadcastStats, the apply gate) see either the
	// old stack or the new one, never a half-built mix.
	r.mu.Lock()
	r.router = router
	r.ab = ab
	r.e2eb = e2eb
	r.detector = det
	r.applierStop = stop
	r.mu.Unlock()

	router.Start()
	if det != nil {
		det.Start()
	}
	st := newApplyState()
	if e2eb != nil {
		e2eb.Start()
		go applyLoop(r, st, e2eb.Deliveries(), func(d e2e.Delivery) applyItem {
			return applyItem{seq: d.Seq, payload: d.Payload, lsn: d.LSN, ack: func() { _ = e2eb.Ack(d.Seq) }}
		}, stop)
	} else if ab != nil {
		go applyLoop(r, st, ab.Deliveries(), func(d abcast.Delivery) applyItem {
			return applyItem{seq: d.Seq, payload: d.Payload}
		}, stop)
	}
	return nil
}

// stopGroupCommunication tears down the current incarnation's group
// communication stack (used by Crash and Close, under lifeMu).
func (r *Replica) stopGroupCommunication() {
	r.mu.Lock()
	stop := r.applierStop
	r.applierStop = nil
	det := r.detector
	r.detector = nil
	e2eb, ab, router := r.e2eb, r.ab, r.router
	r.mu.Unlock()

	if stop != nil {
		close(stop)
	}
	if det != nil {
		det.Stop()
	}
	if e2eb != nil {
		e2eb.Close()
	}
	if ab != nil {
		ab.Close()
	}
	if router != nil {
		router.Stop()
	}
}

// Crash simulates a full server crash: the replica stops processing, its
// network endpoint goes silent, and every piece of volatile state (database
// buffers, unsynced logs, the group communication component's in-memory
// state) is lost.
func (r *Replica) Crash() {
	r.mu.Lock()
	if r.crashed {
		r.mu.Unlock()
		return
	}
	r.crashed = true
	close(r.crashCh)
	// The propagation queue is volatile state: acknowledged-but-unshipped
	// lazy write sets die with the process (the 1-safe loss window).
	r.lazyQueue = nil
	r.mu.Unlock()

	r.lifeMu.Lock()
	defer r.lifeMu.Unlock()
	r.cfg.Network.Crash(r.cfg.ID)
	r.stopGroupCommunication()
}

// StateSnapshot is the checkpoint shipped during state transfer.
type StateSnapshot struct {
	Items          []storage.Item
	AppliedTxns    []uint64
	LastAppliedSeq uint64
	// Prepared and AbortedGIDs carry the cross-partition two-phase-commit
	// bookkeeping: in-doubt prepared sub-transactions (with their
	// certification locks) and the gids decided abort.  Without them a
	// recovered replica would certify conflicting transactions differently
	// from the rest of its partition.  Empty on unpartitioned clusters.
	Prepared    []db.PreparedTxn
	AbortedGIDs []uint64
}

// Snapshot produces a state-transfer checkpoint of this replica.  It takes
// the apply barrier so the capture sits between delivered batches: items,
// applied-transaction set and applied sequence form a consistent cut even on
// a live, loaded donor.  (Without the barrier a snapshot could ship a
// transaction id marked applied by deferred staging whose writes had not yet
// been installed — the receiver would then skip its own delivery of that
// transaction and permanently miss its writes.)
func (r *Replica) Snapshot() StateSnapshot {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	prepared, aborted := r.dbase.PreparedSnapshot()
	return StateSnapshot{
		Items:          r.dbase.SnapshotState(),
		AppliedTxns:    r.dbase.AppliedTxns(),
		LastAppliedSeq: r.LastAppliedSeq(),
		Prepared:       prepared,
		AbortedGIDs:    aborted,
	}
}

// Recover restarts a crashed replica.  If snapshot is non-nil it is installed
// first (checkpoint-based state transfer of the dynamic crash no-recovery
// model); with end-to-end atomic broadcast, logged-but-unacknowledged
// messages are then replayed (log-based recovery).  It returns the number of
// replayed messages.
func (r *Replica) Recover(snapshot *StateSnapshot) (int, error) {
	r.mu.Lock()
	if !r.crashed {
		r.mu.Unlock()
		return 0, fmt.Errorf("core: replica %s is not crashed", r.cfg.ID)
	}
	r.mu.Unlock()

	// Serialise against a Crash/Close teardown still in flight (e.g. one
	// triggered from inside the old incarnation's deliver hook).
	r.lifeMu.Lock()
	defer r.lifeMu.Unlock()

	// Volatile state is lost: the log drops its unsynced tail, database and
	// message records alike, and the database rebuilds from the durable
	// prefix.  (In-memory logs only: a file-backed log's process dies for
	// real and a fresh Replica reopens it.)
	if err := r.dbase.CrashAndRecover(); err != nil {
		return 0, fmt.Errorf("core: database recovery: %w", err)
	}

	r.cfg.Network.Recover(r.cfg.ID)

	r.mu.Lock()
	r.pending = make(map[waiterKey]chan txnOutcome)
	r.veryAcks = make(map[uint64]map[string]bool)
	r.veryDone = make(map[uint64]chan struct{})
	r.crashed = false
	r.crashCh = make(chan struct{})
	r.mu.Unlock()
	// The new incarnation re-applies from its durable prefix: zero the
	// freshness gate and wake any straggling floored waiters of the old life.
	r.fresh.reset()

	if err := r.startGroupCommunication(); err != nil {
		return 0, err
	}

	if snapshot != nil {
		r.installSnapshot(*snapshot)
	}

	return r.ReplayLoggedMessages()
}

func (r *Replica) installSnapshot(s StateSnapshot) {
	// State transfer must never regress the recovering replica below what its
	// own durable log already rebuilt.  The donor is only the most advanced
	// LIVE replica: after a total failure it can itself be behind this
	// replica's durable prefix (it crashed earlier, or recovered first from a
	// shorter log).  Every replica applies prefixes of the same total order
	// and an item's version counts its committed writes, so taking the
	// higher-versioned copy of each item yields exactly the union of the two
	// prefixes; on equal versions the donor's copy is kept (the behaviour of
	// plain replacement, which matters only for the lazy modes where
	// conflicting same-version values can exist and converging on the donor
	// is the point of the transfer).  Re-deliveries past the merged frontier
	// are idempotent: the applied-transaction set rides along.
	items := s.Items
	if own := r.dbase.SnapshotState(); len(own) == len(items) {
		merged := make([]storage.Item, len(items))
		for i := range items {
			if own[i].Version > items[i].Version {
				merged[i] = own[i]
			} else {
				merged[i] = items[i]
			}
		}
		items = merged
	}
	r.dbase.RestoreState(items, s.AppliedTxns)
	_ = r.dbase.InstallPrepared(s.Prepared, s.AbortedGIDs)
	r.advanceAppliedSeq(s.LastAppliedSeq)
	r.mu.Lock()
	ab := r.ab
	r.mu.Unlock()
	if ab != nil {
		ab.SkipTo(s.LastAppliedSeq + 1)
	}
}

// MergeSnapshot merges a state-transfer checkpoint into a LIVE replica,
// concurrently with the apply pipeline: items are taken per-item only where
// the snapshot is strictly newer-versioned (an atomic conditional append in
// the store, so a racing local install can never be reverted), the applied
// transaction set is unioned, and the applied sequence and the broadcaster's
// delivery cursor only ever advance.  The server layer calls this from its
// periodic resync, where snapshots routinely arrive stale or concurrently
// with fresh deliveries.  Returns the number of items taken.
func (r *Replica) MergeSnapshot(s StateSnapshot) int {
	merged := r.dbase.MergeNewerState(s.Items, s.AppliedTxns)
	_ = r.dbase.InstallPrepared(s.Prepared, s.AbortedGIDs)
	r.advanceAppliedSeq(s.LastAppliedSeq)
	r.mu.Lock()
	ab := r.ab
	// The snapshot can contain this replica's own in-flight transactions (a
	// peer applied them while this one was behind).  SkipTo steps over their
	// deliveries, so the apply loop will never answer their waiters; the
	// donor applied them, so they committed.  That is a final outcome: a
	// waiter for a prepare vote under the same id is not answered by it.
	if len(r.pending) > 0 {
		for _, id := range s.AppliedTxns {
			if ch, ok := r.pending[waiterKey{txnID: id}]; ok {
				select {
				case ch <- txnOutcome{outcome: OutcomeCommitted, seq: s.LastAppliedSeq}:
				default:
				}
			}
		}
	}
	r.mu.Unlock()
	if ab != nil {
		ab.SkipTo(s.LastAppliedSeq + 1)
	}
	return merged
}

// Router exposes the replica's message router so embedding layers (the
// server process) can register additional message types — state transfer
// requests, for example — on the same transport endpoint and incarnation the
// replication stack uses.  The router changes on recovery; callers must
// re-fetch it after Recover.
func (r *Replica) Router() *gcs.Router {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.router
}

// ReplayLoggedMessages re-delivers every logged-but-unacknowledged end-to-end
// broadcast message to the apply loop, returning the number replayed.  A
// restarting server process calls it once after constructing the replica over
// its surviving file-backed log; clusters without the end-to-end
// layer replay nothing.
func (r *Replica) ReplayLoggedMessages() (int, error) {
	r.mu.Lock()
	e2eb := r.e2eb
	r.mu.Unlock()
	if e2eb == nil {
		return 0, nil
	}
	return e2eb.Recover()
}

// Close shuts the replica down.
func (r *Replica) Close() error {
	r.mu.Lock()
	if !r.crashed {
		r.crashed = true
		close(r.crashCh)
	}
	r.mu.Unlock()
	r.lifeMu.Lock()
	r.stopGroupCommunication()
	r.lifeMu.Unlock()
	return r.dbase.Close()
}
