package core

import (
	"groupsafe/internal/db"
	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/gcs/e2e"
	"groupsafe/internal/gcs/fd"
	"groupsafe/internal/storage"
)

// This file is the replica's lifecycle: building and tearing down the group
// communication stack, the crash model (Crash loses volatile state, a
// recovered process is a new process), checkpoint-based state transfer and
// end-to-end message replay.  A broadcaster and apply loop exist exactly
// when the safety level uses group communication.

// startGroupCommunication builds the router, the broadcaster and the applier
// of the replica's one life, incarnation.  NewReplica runs it before the
// replica is shared, and the fields it sets never change afterwards.
func (r *Replica) startGroupCommunication(incarnation uint64) error {
	r.router = gcs.NewRouter(r.cfg.Network.Endpoint(r.cfg.ID))
	r.router.Handle(msgLazy, r.onLazy)
	r.router.Handle(msgAck, r.onVerySafeAck)
	if r.cfg.Level.UsesGroupCommunication() {
		var err error
		r.ab, err = abcast.New(abcast.Config{
			Self:        r.cfg.ID,
			Members:     r.cfg.Members,
			Incarnation: incarnation,
			// Advertised freshness rides the existing ACK/ORDER traffic:
			// every broadcast-layer message stamps the sender's applied
			// watermark, and received stamps feed the peer-advert cache
			// backing freshness-aware routing and staleness leases.
			AdvertiseSeq: r.LastAppliedSeq,
			OnPeerAdvert: r.notePeerApplied,
		}, r.router)
		if err != nil {
			return err
		}
		if r.cfg.Level.RequiresEndToEnd() {
			// Messages go into the database's log unforced: the apply loop's
			// one force per batch (batchForce) covers them with the commits.
			r.e2eb, err = e2e.Wrap(r.ab, e2e.Config{Log: r.cfg.DBLog, ConsumerForces: true})
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
			r.detector = fd.New(r.cfg.ID, r.cfg.Members, r.router, detCfg)
			r.router.Handle(fd.MsgHeartbeat, r.detector.OnMessage)
			r.detector.OnEvent(func(ev fd.Event) {
				if ev.Suspected {
					r.ab.Suspect(ev.Peer)
				} else {
					r.ab.Unsuspect(ev.Peer)
				}
				onEvent(ev)
			})
		}
	}

	r.router.Start()
	if r.detector != nil {
		r.detector.Start()
	}
	st := newApplyState()
	if e2eb := r.e2eb; e2eb != nil {
		e2eb.Start()
		go applyLoop(r, st, e2eb.Deliveries(), func(d e2e.Delivery) applyItem {
			return applyItem{seq: d.Seq, payload: d.Payload, lsn: d.LSN, ack: func() { _ = e2eb.Ack(d.Seq) }}
		})
	} else if r.ab != nil {
		go applyLoop(r, st, r.ab.Deliveries(), func(d abcast.Delivery) applyItem {
			return applyItem{seq: d.Seq, payload: d.Payload}
		})
	}
	return nil
}

// end ends the replica's life and reports whether this call did: it marks
// the replica crashed, which stops the apply loop, and the caller that gets
// true then tears the stack down with stopGroupCommunication.
func (r *Replica) end() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.Crashed() {
		return false
	}
	close(r.crashCh)
	// The propagation queue is volatile state: acknowledged-but-unshipped
	// lazy write sets die with the process (the 1-safe loss window).
	r.lazyQueue = nil
	return true
}

// stopGroupCommunication tears down the group communication stack, once per
// life (by whichever of Crash and Close ended it), and closes stopped.
func (r *Replica) stopGroupCommunication() {
	if r.detector != nil {
		r.detector.Stop()
	}
	if r.e2eb != nil {
		r.e2eb.Close()
	}
	if r.ab != nil {
		r.ab.Close()
	}
	r.router.Stop()
	close(r.stopped)
}

// Crash simulates a full server crash: the replica stops processing, its
// network endpoint goes silent, and every piece of volatile state (database
// buffers, unsynced logs, the group communication component's in-memory
// state) is lost.  The replica stays crashed; Cluster.Recover starts a new
// one in its place.
func (r *Replica) Crash() {
	if !r.end() {
		return
	}
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
	if r.ab != nil {
		r.ab.SkipTo(s.LastAppliedSeq + 1)
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
	if r.ab != nil {
		r.ab.SkipTo(s.LastAppliedSeq + 1)
	}
	return merged
}

// Router exposes the replica's message router so embedding layers (the
// server process) can register additional message types — state transfer
// requests, for example — on the same transport endpoint and incarnation the
// replication stack uses.
func (r *Replica) Router() *gcs.Router { return r.router }

// ReplayLoggedMessages re-delivers every logged-but-unacknowledged end-to-end
// broadcast message to the apply loop, returning the number replayed.  A
// restarted server (a gsdb-server process, or Cluster.Recover) calls it once
// after constructing the replica over its surviving log; replicas without the
// end-to-end layer replay nothing.
func (r *Replica) ReplayLoggedMessages() (int, error) {
	if r.e2eb == nil {
		return 0, nil
	}
	return r.e2eb.Recover()
}

// Close shuts the replica down.  After a Crash it waits for the crash's
// teardown, so the caller may reuse the replica's log and address.
func (r *Replica) Close() error {
	if r.end() {
		r.stopGroupCommunication()
	} else {
		<-r.stopped
	}
	return r.dbase.Close()
}
