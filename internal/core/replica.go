package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"groupsafe/internal/db"
	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/gcs/e2e"
	"groupsafe/internal/gcs/fd"
	"groupsafe/internal/gcs/transport"
	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
)

// Message types used by the replication layer on top of the shared router.
const (
	msgLazy = "rep.lazy"
	msgAck  = "rep.ack"
)

// Errors returned by replicas.
var (
	ErrCrashed  = errors.New("core: replica is crashed")
	ErrTimeout  = errors.New("core: timed out waiting for the transaction outcome")
	ErrNotFound = errors.New("core: replica not found")
	// ErrNotPrimary is returned by the lazy primary-copy technique when an
	// update transaction is submitted to a non-primary replica.
	ErrNotPrimary = errors.New("core: lazy primary-copy: update transactions must execute at the primary")
	// ErrComputeNotReplicable is returned by active replication for requests
	// with a Compute hook: a Go closure cannot be broadcast, and active
	// replication replays the full operation list at every replica.
	ErrComputeNotReplicable = errors.New("core: active replication cannot ship Compute closures; use static operation lists")
	// ErrSafetyUnavailable is returned when a per-transaction safety override
	// (Request.Safety) asks for a level the cluster's technique or machinery
	// cannot provide — e.g. 2-safe on a cluster built without the end-to-end
	// message log, or any group-communication level on a lazy cluster.
	ErrSafetyUnavailable = errors.New("core: requested per-transaction safety level is unavailable on this cluster")
	// ErrTooStale is returned by a read-only execution carrying a
	// Request.MaxStaleness bound when the serving replica cannot prove its
	// snapshot is within the bound: it lags the freshest advertised sequence
	// by more than the bound's worth of deliveries at the estimated delivery
	// rate.  The client should redirect the query to a fresher replica
	// instead of waiting here.
	ErrTooStale = errors.New("core: replica lags beyond the requested staleness bound")
	// ErrSnapshotTooOld is returned by a read whose MVCC snapshot was evicted
	// by the pin-age cap (ReplicaConfig.MaxPinAge): the snapshot trailed the
	// apply watermark too far and its version history has been reclaimed.
	// Retry on a fresh snapshot.
	ErrSnapshotTooOld = storage.ErrSnapshotTooOld
)

// ReplicaConfig configures one replica server.
type ReplicaConfig struct {
	// ID is the replica's address on the network (must appear in Members).
	ID string
	// Members is the static list of all replica addresses.
	Members []string
	// Items is the database size.
	Items int
	// Level is the safety criterion enforced when answering clients.
	Level SafetyLevel
	// Technique selects the replication technique (certification-based
	// database state machine, active replication, or lazy primary-copy).
	// The technique may constrain or canonicalise Level: active replication
	// needs a group-communication level (the zero level is promoted to
	// group-safe), lazy primary-copy is inherently 1-safe.
	Technique TechniqueID
	// Network attaches the replica to its peers: the shared in-memory
	// network in simulated clusters, a transport.TCPNode in one-process-per-
	// replica deployments.
	Network transport.Network
	// DBLog overrides the replica's one stable log (database records and, at
	// the end-to-end levels, broadcast message records).  Nil selects an
	// in-memory log with DiskSyncDelay (the simulated-cluster default); server
	// processes pass a wal.FileLog so state survives a real process kill.
	DBLog wal.Log
	// IncarnationBase offsets the abcast incarnation numbers AND the
	// transaction-id counter of this process.  The in-process crash model
	// bumps incarnations within one Replica value; a restarted OS process
	// constructs a brand-new Replica whose counters restart at 1, so a
	// server persists a monotone base across restarts — otherwise the
	// sequencer would silently ignore the reborn replica's messages as
	// duplicates of its previous life, and (worse) a reborn delegate would
	// reuse transaction ids from its previous life, which every replica's
	// applied set already contains: the reissued transaction would certify,
	// acknowledge, and then be skipped at install everywhere as a presumed
	// re-delivery — silent loss of an acknowledged transaction.  The base
	// leaves 2^20 ids per incarnation before the next life's range begins.
	IncarnationBase uint64
	// DiskSyncDelay emulates the latency of forcing a log to disk.
	DiskSyncDelay time.Duration
	// ExecTimeout bounds how long Execute waits for an outcome (default 10s).
	ExecTimeout time.Duration
	// LazyPropagationDelay postpones the asynchronous write-set propagation
	// of the 0-safe, lazy and lazy primary-copy modes, widening the window
	// in which a delegate crash loses the transaction (used by the Table 2
	// experiments).
	LazyPropagationDelay time.Duration
	// RecordApplied keeps an in-memory log of every transaction this replica
	// externalises, in apply order (see AppliedLog).  Off by default; the
	// scenario fuzzer turns it on to reconstruct the committed history for
	// its invariant checks.  The log is a harness-side observer: it survives
	// the simulated crash of the replica (unlike volatile state) and may
	// contain duplicate sequence numbers after an end-to-end replay.
	RecordApplied bool
	// OnDetectorEvent, when set, runs a heartbeat failure detector (tuned by
	// Detector) wired to the atomic broadcast's Suspect mechanism, and
	// receives every detector transition after the broadcaster has been
	// informed.  The server layer uses it to drive membership view changes.
	// Without it, crashed peers are reported through Suspect.
	OnDetectorEvent func(fd.Event)
	// Detector tunes the failure detector OnDetectorEvent starts.
	Detector fd.Config
	// MaxPinAge bounds how many apply sequences a read-only MVCC snapshot may
	// trail the visible watermark before it is evicted and its reads return
	// ErrSnapshotTooOld (0: unlimited).  It caps the version history one slow
	// analytic scan can retain under a write storm.
	MaxPinAge uint64
}

// applyDefaults validates the configuration, resolves the technique and lets
// it canonicalise the safety level.
func (c *ReplicaConfig) applyDefaults() (Technique, error) {
	if c.ID == "" {
		return nil, fmt.Errorf("core: replica ID is required")
	}
	if len(c.Members) == 0 {
		return nil, fmt.Errorf("core: member list is required")
	}
	if c.Network == nil {
		return nil, fmt.Errorf("core: network is required")
	}
	if c.Items <= 0 {
		c.Items = 1024
	}
	if c.ExecTimeout <= 0 {
		c.ExecTimeout = 10 * time.Second
	}
	if c.DBLog == nil {
		c.DBLog = wal.NewMemLogWithDelay(c.DiskSyncDelay)
	}
	tech, err := techniqueFor(c.Technique)
	if err != nil {
		return nil, err
	}
	level, err := tech.checkLevel(c.Level)
	if err != nil {
		return nil, err
	}
	c.Level = level
	return tech, nil
}

// ReplicaStats are cumulative counters of one replica.
type ReplicaStats struct {
	Executed  uint64
	Committed uint64
	Aborted   uint64
	Delivered uint64
	LazyApply uint64
	// Queries counts read-only transactions served locally from an MVCC
	// snapshot — no group communication, no locks, no aborts.  Queries also
	// count into Executed and Committed; Delivered never includes them
	// (nothing is broadcast).
	Queries uint64
	// AcksSent counts the very-safe per-replica acknowledgement messages this
	// replica sent to remote delegates (its own local ack is not counted).
	// The per-transaction safety tests use it to assert, by message count,
	// that a very-safe transaction really waited for remote acknowledgements.
	AcksSent uint64
}

// Replica is one server of the replicated database: a local database
// component plus a group communication component, combined by the pluggable
// replication technique.
type Replica struct {
	cfg   ReplicaConfig
	index int
	tech  Technique

	// lifeMu serialises incarnation transitions (the teardown of Crash/Close
	// and the rebuild of Recover): a crash triggered from inside the apply
	// loop's deliver hook must not interleave with a concurrent Recover.
	lifeMu sync.Mutex

	// applyMu is the apply barrier: held for the duration of every delivered
	// batch (and every lazy write-set install), and by Snapshot.  A state
	// snapshot taken mid-batch would be poisoned — deferred staging marks a
	// transaction applied before its writes reach the store, so a snapshot
	// cut between the two ships an applied id without its writes, and the
	// receiver then skips its own delivery of that transaction and loses the
	// writes for good.  Snapshot therefore waits for the in-flight batch and
	// captures between batches.
	applyMu sync.Mutex

	mu          sync.Mutex
	dbase       *db.DB
	router      *gcs.Router
	ab          *abcast.Broadcaster
	e2eb        *e2e.Broadcaster
	detector    *fd.Detector
	pending     map[waiterKey]chan txnOutcome
	veryAcks    map[uint64]map[string]bool
	veryDone    map[uint64]chan struct{}
	crashed     bool
	crashCh     chan struct{}
	incarnation int
	applierStop chan struct{}
	nextTxn     uint64
	deliverHook func(txnID uint64)
	stats       ReplicaStats
	appliedLog  []AppliedRecord

	// fresh is the freshness gate: the applied-sequence watermark, the
	// ordered wakeup heap for floored sessions, and the delivery-rate
	// estimate backing bounded-staleness leases (freshgate.go).
	fresh freshGate
	// peerApplied caches the applied sequence each peer last advertised
	// (piggybacked on abcast ACK/ORDER traffic and on heartbeats).  The map
	// is created once from Members and never mutated, so reads are lock-free.
	peerApplied map[string]*atomic.Uint64

	// Ordered asynchronous write-set propagation of the lazy modes
	// (technique_lazy.go).
	lazyQueue    []*lazyItem
	lazyDraining bool
}

// NewReplica creates and starts a replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	tech, err := cfg.applyDefaults()
	if err != nil {
		return nil, err
	}
	index := -1
	for i, m := range cfg.Members {
		if m == cfg.ID {
			index = i
			break
		}
	}
	if index < 0 {
		return nil, fmt.Errorf("core: replica %q not in member list %v", cfg.ID, cfg.Members)
	}
	r := &Replica{
		cfg:         cfg,
		index:       index,
		tech:        tech,
		pending:     make(map[waiterKey]chan txnOutcome),
		veryAcks:    make(map[uint64]map[string]bool),
		veryDone:    make(map[uint64]chan struct{}),
		crashCh:     make(chan struct{}),
		nextTxn:     cfg.IncarnationBase,
		peerApplied: make(map[string]*atomic.Uint64, len(cfg.Members)),
	}
	for _, m := range cfg.Members {
		r.peerApplied[m] = new(atomic.Uint64)
	}

	policy := db.AsyncCommit
	if cfg.Level.SyncOnCommit() {
		policy = db.SyncOnCommit
	}
	dbase, err := db.Open(db.Config{Items: cfg.Items, Policy: policy, Log: cfg.DBLog, MaxPinAge: cfg.MaxPinAge})
	if err != nil {
		return nil, fmt.Errorf("core: open database: %w", err)
	}
	r.dbase = dbase

	if err := r.startGroupCommunication(); err != nil {
		return nil, err
	}
	return r, nil
}

// ID returns the replica's address.
func (r *Replica) ID() string { return r.cfg.ID }

// Level returns the replica's (canonicalised) safety level.
func (r *Replica) Level() SafetyLevel { return r.cfg.Level }

// Technique returns the replication technique the replica runs.
func (r *Replica) Technique() TechniqueID { return r.tech.ID() }

// IsPrimary reports whether this replica is the primary (the first member).
// Only the lazy primary-copy technique distinguishes the primary.
func (r *Replica) IsPrimary() bool { return r.index == 0 }

// DB exposes the local database component (used by consistency checks).
func (r *Replica) DB() *db.DB { return r.dbase }

// Crashed reports whether the replica is currently crashed.
func (r *Replica) Crashed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.crashed
}

// Stats returns a snapshot of the replica counters.
func (r *Replica) Stats() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// BroadcastStats returns the atomic broadcast counters of this replica (zero
// when the technique/safety level does not use group communication).  The
// benchmarks use it to measure the per-transaction message count of the
// batched pipeline.
func (r *Replica) BroadcastStats() abcast.Stats {
	r.mu.Lock()
	ab := r.ab
	r.mu.Unlock()
	if ab == nil {
		return abcast.Stats{}
	}
	return ab.Stats()
}

// LastAppliedSeq returns the highest atomic broadcast sequence number applied
// to the database.  The read is lock-free: it runs on the query hot path (one
// sample per read-only transaction) and inside the broadcast ACK path (the
// advertised-freshness piggyback).
func (r *Replica) LastAppliedSeq() uint64 { return r.fresh.appliedSeq() }

// notePeerApplied records the applied sequence a peer advertised (monotonic;
// stale adverts are ignored).  It is invoked from the abcast ACK/ORDER
// receive path and from heartbeat annotations, so it must stay lock-free.
func (r *Replica) notePeerApplied(peer string, seq uint64) {
	c, ok := r.peerApplied[peer]
	if !ok {
		return
	}
	for {
		cur := c.Load()
		if seq <= cur || c.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// PeerAppliedSeq returns the last applied sequence advertised by a peer (zero
// when none was heard yet); for the local replica it returns the live value.
func (r *Replica) PeerAppliedSeq(peer string) uint64 {
	if peer == r.cfg.ID {
		return r.fresh.appliedSeq()
	}
	if c, ok := r.peerApplied[peer]; ok {
		return c.Load()
	}
	return 0
}

// maxKnownSeq returns the highest applied sequence known anywhere in the
// group: the local watermark or the freshest peer advert.
func (r *Replica) maxKnownSeq() uint64 {
	m := r.fresh.appliedSeq()
	for peer, c := range r.peerApplied {
		if peer == r.cfg.ID {
			continue
		}
		if v := c.Load(); v > m {
			m = v
		}
	}
	return m
}

// DeliveryRate returns the replica's estimated apply rate in broadcast
// sequences per second (an EWMA sampled per externalised batch; zero before
// the first sample).  It is the estimate backing bounded-staleness leases.
func (r *Replica) DeliveryRate() float64 { return r.fresh.rate() }

// FreshnessWakeups returns the cumulative number of freshness-waiter wakeups
// (observability for the O(1)-wakeups-per-delivery property).
func (r *Replica) FreshnessWakeups() uint64 { return r.fresh.wakeCount() }

// SetDeliverHook installs a test hook invoked after a message is delivered by
// the group communication component but before the database processes it —
// the window in which the crash of Fig. 5 happens.
func (r *Replica) SetDeliverHook(fn func(txnID uint64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deliverHook = fn
}

// Suspect informs the replica's broadcaster that a peer is believed crashed
// (used by scenario drivers when no failure detector is running).
func (r *Replica) Suspect(peer string) {
	r.mu.Lock()
	ab := r.ab
	r.mu.Unlock()
	if ab != nil {
		ab.Suspect(peer)
	}
}

// Unsuspect reverses a Suspect: the peer is believed alive again (used by
// scenario drivers when a crashed replica recovers).
func (r *Replica) Unsuspect(peer string) {
	r.mu.Lock()
	ab := r.ab
	r.mu.Unlock()
	if ab != nil {
		ab.Unsuspect(peer)
	}
}

// nextTxnID assigns a globally unique transaction identifier: the replica
// index occupies the high bits, a local counter the low bits.  The counter
// starts at IncarnationBase, not zero: transaction ids must be unique across
// process restarts too, because every replica's applied-transaction set
// treats a familiar id as an idempotent re-delivery and silently skips the
// install — a reborn delegate reusing an id from its previous life would get
// its transaction certified and acknowledged but never applied anywhere.
func (r *Replica) nextTxnID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextTxn++
	return uint64(r.index+1)<<40 | r.nextTxn
}

// Execute runs one client transaction with this replica as the delegate and
// returns when the notification condition of the transaction's safety level
// (the cluster's, or the Request.Safety override) holds.  Cancellation and
// deadlines are first-class: when ctx expires mid-flight the call returns
// promptly with a ctx.Err()-wrapped error (ErrTimeout for deadlines) and the
// transaction's waiter is deregistered; the transaction itself may still
// commit group-wide — only the notification is abandoned.  A context without
// a deadline gets the configured ExecTimeout as a default.
//
// Requests that cannot write (no write ops, no Compute hook) never reach the
// replication technique at all: they execute on a local MVCC snapshot with no
// group communication (executeReadOnly).  A request declared ReadOnly that
// nevertheless carries a write fails with ErrReadOnlyWrites.
func (r *Replica) Execute(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, ctxWaitError(ctx, req.ID, "before submission")
	}
	if req.ReadOnly && requestMayWrite(req) {
		return Result{}, fmt.Errorf("%w: txn %d", ErrReadOnlyWrites, req.ID)
	}
	r.mu.Lock()
	if r.crashed {
		r.mu.Unlock()
		return Result{}, ErrCrashed
	}
	crashCh := r.crashCh
	r.mu.Unlock()

	if req.ID == 0 {
		req.ID = r.nextTxnID()
	}
	r.mu.Lock()
	r.stats.Executed++
	r.mu.Unlock()

	if !requestMayWrite(req) {
		return r.executeReadOnly(ctx, req, crashCh)
	}
	return r.tech.execute(ctx, r, req, crashCh)
}

// WaitDurable blocks until the replica's local database log is durable up to
// lsn (as reported by Result.CommitLSN), forcing it on demand, or until ctx
// is done.  For safety levels that force on commit the call returns
// immediately; for the asynchronous-durability levels (group-safe) it is the
// explicit way to close the response-vs-durability gap for one transaction.
func (r *Replica) WaitDurable(ctx context.Context, lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- r.dbase.ForceTo(wal.LSN(lsn)) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}
