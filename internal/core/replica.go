package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"groupsafe/internal/db"
	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/gcs/e2e"
	"groupsafe/internal/gcs/fd"
	"groupsafe/internal/gcs/transport"
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
	// ErrComputeNotReplicable reports a request with a Compute hook that has
	// to cross a process boundary: a Go closure cannot be serialised.  A
	// replica runs Compute hooks at the delegate and never returns it; the
	// network client (gsdb.Dial) rejects such requests with it, and the wire
	// protocol carries it to keep the errors.Is identity.
	ErrComputeNotReplicable = errors.New("core: Compute closures cannot be shipped; use static operation lists")
	// ErrSafetyUnavailable is returned when a per-transaction safety override
	// (Request.Safety) asks for a level the cluster's machinery cannot
	// provide — e.g. 2-safe on a cluster built without the end-to-end
	// message log, or any group-communication level on a lazy cluster.
	ErrSafetyUnavailable = errors.New("core: requested per-transaction safety level is unavailable on this cluster")
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
	// Network attaches the replica to its peers: the shared in-memory
	// network in simulated clusters, a transport.TCPNode in one-process-per-
	// replica deployments.
	Network transport.Network
	// DBLog overrides the replica's one stable log (database records and, at
	// the end-to-end levels, broadcast message records).  Nil selects an
	// in-memory log with DiskSyncDelay (the simulated-cluster default); server
	// processes pass a wal.FileLog so state survives a real process kill.
	DBLog wal.Log
	// DiskSyncDelay emulates the latency of forcing a log to disk.
	DiskSyncDelay time.Duration
	// ExecTimeout bounds how long Execute waits for an outcome (default 10s).
	ExecTimeout time.Duration
	// LazyPropagationDelay postpones the asynchronous write-set propagation
	// of the 0-safe and lazy (1-safe) levels, widening the window
	// in which a delegate crash loses the transaction (used by the Table 2
	// experiments).
	LazyPropagationDelay time.Duration
	// RecordApplied keeps an in-memory log of every transaction this replica
	// externalises, in apply order (see AppliedLog).  Off by default; the
	// scenario fuzzer turns it on to reconstruct the committed history for
	// its invariant checks.  The log is a harness-side observer:
	// Cluster.Recover carries it into the replica's next life (unlike
	// volatile state), so it may contain duplicate sequence numbers after an
	// end-to-end replay.
	RecordApplied bool
	// OnDetectorEvent, when set, runs a heartbeat failure detector (tuned by
	// Detector) wired to the atomic broadcast's Suspect mechanism, and
	// receives every detector transition after the broadcaster has been
	// informed.  The server layer uses it to drive membership view changes.
	// Without it, crashed peers are reported through Suspect.
	OnDetectorEvent func(fd.Event)
	// Detector tunes the failure detector OnDetectorEvent starts.
	Detector fd.Config
}

// applyDefaults validates the configuration and fills in defaults.
func (c *ReplicaConfig) applyDefaults() error {
	if c.ID == "" {
		return fmt.Errorf("core: replica ID is required")
	}
	if len(c.Members) == 0 {
		return fmt.Errorf("core: member list is required")
	}
	if c.Network == nil {
		return fmt.Errorf("core: network is required")
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
	return nil
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
// component plus a group communication component, combined by the
// certification protocol.  A Replica lives one life: once crashed it stays
// crashed, and a recovery starts a new Replica over the same log (the
// paper's dynamic crash no-recovery model, Sect. 2.3).
type Replica struct {
	cfg   ReplicaConfig
	index int

	// applyMu is the apply barrier: held for the duration of every delivered
	// batch (and every lazy write-set install), and by Snapshot.  A state
	// snapshot taken mid-batch would be poisoned — deferred staging marks a
	// transaction applied before its writes reach the store, so a snapshot
	// cut between the two ships an applied id without its writes, and the
	// receiver then skips its own delivery of that transaction and loses the
	// writes for good.  Snapshot therefore waits for the in-flight batch and
	// captures between batches.
	applyMu sync.Mutex

	// The database and the group communication stack are built once, before
	// the replica is shared, and never replaced: they are read without mu.
	dbase    *db.DB
	router   *gcs.Router
	ab       *abcast.Broadcaster
	e2eb     *e2e.Broadcaster
	detector *fd.Detector
	// crashCh closes (under mu) when the life ends, by Crash or Close;
	// stopped closes once the teardown that follows is complete.
	crashCh chan struct{}
	stopped chan struct{}

	mu       sync.Mutex
	pending  map[waiterKey]chan txnOutcome
	veryAcks map[uint64]map[string]bool
	veryDone map[uint64]chan struct{}
	nextTxn  uint64
	// idMark is the durable bound on nextTxn; idForcing is open during a force.
	idMark      uint64
	idForcing   chan struct{}
	deliverHook func(txnID uint64)
	stats       ReplicaStats
	appliedLog  []AppliedRecord

	// fresh is the freshness gate: the applied-sequence watermark and the
	// ordered wakeup heap for floored sessions (freshgate.go).
	fresh freshGate

	// Ordered asynchronous write-set propagation of the lazy modes
	// (technique_lazy.go).
	lazyQueue    []*lazyItem
	lazyDraining bool
}

// NewReplica creates and starts a replica.
func NewReplica(cfg ReplicaConfig) (*Replica, error) { return newReplica(cfg, nil) }

// newReplica creates and starts a replica.  prev, when set, is the crashed
// previous life of the same server: its harness-side observers (Stats and
// AppliedLog) carry over into the new life.
func newReplica(cfg ReplicaConfig, prev *Replica) (*Replica, error) {
	if err := cfg.applyDefaults(); err != nil {
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
		cfg:      cfg,
		index:    index,
		pending:  make(map[waiterKey]chan txnOutcome),
		veryAcks: make(map[uint64]map[string]bool),
		veryDone: make(map[uint64]chan struct{}),
		crashCh:  make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	if prev != nil {
		prev.mu.Lock()
		r.stats, r.appliedLog = prev.stats, slices.Clone(prev.appliedLog)
		prev.mu.Unlock()
	}

	policy := db.AsyncCommit
	if cfg.Level.SyncOnCommit() {
		policy = db.SyncOnCommit
	}
	dbase, err := db.Open(db.Config{Items: cfg.Items, Policy: policy, Log: cfg.DBLog})
	if err != nil {
		return nil, fmt.Errorf("core: open database: %w", err)
	}
	r.dbase = dbase

	// The largest id mark in the log, M, bounds every counter and abcast
	// incarnation an earlier life used.  This life is incarnation M+1, and
	// its counter goes on from M once its own first mark is durable.
	m := dbase.IDMark()
	r.mu.Lock()
	r.nextTxn, r.idMark = m, m
	err = r.extendIDMarkLocked()
	r.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("core: force id mark: %w", err)
	}
	if err := r.startGroupCommunication(m + 1); err != nil {
		return nil, err
	}
	return r, nil
}

// ID returns the replica's address.
func (r *Replica) ID() string { return r.cfg.ID }

// Level returns the replica's safety level.
func (r *Replica) Level() SafetyLevel { return r.cfg.Level }

// DB exposes the local database component (used by consistency checks).
func (r *Replica) DB() *db.DB { return r.dbase }

// Crashed reports whether the replica is crashed (or closed).
func (r *Replica) Crashed() bool {
	select {
	case <-r.crashCh:
		return true
	default:
		return false
	}
}

// Stats returns a snapshot of the replica counters.
func (r *Replica) Stats() ReplicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// BroadcastStats returns the atomic broadcast counters of this replica (zero
// when the safety level does not use group communication).  The
// benchmarks use it to measure the per-transaction message count of the
// batched pipeline.
func (r *Replica) BroadcastStats() abcast.Stats {
	if r.ab == nil {
		return abcast.Stats{}
	}
	return r.ab.Stats()
}

// LastAppliedSeq returns the highest atomic broadcast sequence number applied
// to the database.  The read is lock-free: it runs on the query hot path (one
// sample per read-only transaction).
func (r *Replica) LastAppliedSeq() uint64 { return r.fresh.appliedSeq() }

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
	if r.ab != nil {
		r.ab.Suspect(peer)
	}
}

// Unsuspect reverses a Suspect: the peer is believed alive again (used by
// scenario drivers when a crashed replica recovers).
func (r *Replica) Unsuspect(peer string) {
	if r.ab != nil {
		r.ab.Unsuspect(peer)
	}
}

// idBlock is how far each id mark reaches past the last: one force per block.
const idBlock = 1 << 16

// nextTxnID assigns a transaction id: the replica index in the high bits, a
// counter in the low bits.  Ids must be unique across lives too: every
// replica skips a familiar id at install as a re-delivery, so a reused id
// loses an acknowledged write.  No counter above the durable id mark is
// issued (a failed force fails the draw that needs it), and the next life
// counts on from the largest mark.
func (r *Replica) nextTxnID() (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.nextTxn >= r.idMark {
		if err := r.extendIDMarkLocked(); err != nil {
			return 0, err
		}
	}
	r.nextTxn++
	id := uint64(r.index+1)<<40 | r.nextTxn
	if r.idForcing == nil && r.idMark-r.nextTxn < idBlock/2 {
		// Half the block is used: force the next mark ahead of need.
		_ = r.extendIDMarkLocked()
	}
	return id, nil
}

// extendIDMarkLocked appends the id mark one block past the counter and
// forces it, releasing r.mu for the force; if a force is in flight already,
// it waits for that one instead.  It is called, and returns, with r.mu held.
func (r *Replica) extendIDMarkLocked() error {
	if wait := r.idForcing; wait != nil {
		r.mu.Unlock()
		<-wait
		r.mu.Lock()
		return nil
	}
	r.idForcing = make(chan struct{})
	next := max(r.idMark, r.nextTxn) + idBlock
	r.mu.Unlock()
	lsn, err := r.dbase.Log().Append(wal.Record{Kind: wal.KindIDMark, TxnID: next})
	if err == nil {
		err = r.dbase.ForceTo(lsn)
	}
	r.mu.Lock()
	if err == nil {
		r.idMark = next
	}
	close(r.idForcing)
	r.idForcing = nil
	return err
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
// Requests that cannot write (no write ops, no Compute hook) execute on a
// local MVCC snapshot with no group communication (executeReadOnly).  A
// request declared ReadOnly that nevertheless carries a write fails with
// ErrReadOnlyWrites.  The rest are broadcast and certified at the
// group-communication levels (executeReplicated), and run locally with lazy
// propagation below them (executeLocal).
func (r *Replica) Execute(ctx context.Context, req Request) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, ctxWaitError(ctx, req.ID, "before submission")
	}
	if req.ReadOnly && requestMayWrite(req) {
		return Result{}, fmt.Errorf("%w: txn %d", ErrReadOnlyWrites, req.ID)
	}
	if r.Crashed() {
		return Result{}, ErrCrashed
	}
	if req.ID == 0 {
		var err error
		if req.ID, err = r.nextTxnID(); err != nil {
			return Result{}, fmt.Errorf("core: reserve a transaction id: %w", err)
		}
	}
	r.mu.Lock()
	r.stats.Executed++
	r.mu.Unlock()

	switch {
	case !requestMayWrite(req):
		return r.executeReadOnly(ctx, req)
	case r.cfg.Level.UsesGroupCommunication():
		return r.executeReplicated(ctx, req)
	default:
		return r.executeLocal(ctx, req)
	}
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
