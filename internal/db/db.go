// Package db implements the local database component of the paper's model
// (Sect. 2.2): it stores a full copy of the database, executes local
// transactions under strict two-phase locking, enforces durability through a
// write-ahead log, recovers committed state after a crash, and provides the
// "testable transactions" facility (a transaction is applied at most once even
// if it is submitted multiple times) that the replication layer relies on.
package db

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"groupsafe/internal/lock"
	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
)

// SyncPolicy controls when the write-ahead log is forced to stable storage.
type SyncPolicy int

const (
	// SyncOnCommit forces the log before a commit is acknowledged (the
	// behaviour needed by 1-safe, group-1-safe and 2-safe replication).
	SyncOnCommit SyncPolicy = iota
	// AsyncCommit lets commits be acknowledged before the log is forced; the
	// log is forced lazily by Flush (the behaviour exploited by group-safe
	// replication, which delegates durability to the group).
	AsyncCommit
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncOnCommit:
		return "sync-on-commit"
	case AsyncCommit:
		return "async-commit"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Errors returned by the database component.
var (
	ErrTxnDone        = errors.New("db: transaction already committed or aborted")
	ErrAlreadyApplied = errors.New("db: transaction already applied")
	ErrClosed         = errors.New("db: database closed")
)

// Config configures a database instance.
type Config struct {
	// Items is the database size (Table 4: 10'000 items).
	Items int
	// Policy selects the commit durability behaviour.
	Policy SyncPolicy
	// Log is the stable-storage log.  When nil an in-memory log is created.
	Log wal.Log
}

// Stats are cumulative counters maintained by the database.
type Stats struct {
	Commits       uint64
	Aborts        uint64
	Deadlocks     uint64
	AppliedRemote uint64
	SkippedDup    uint64
	// ReadTxns counts read-only snapshot transactions (BeginRead); they take
	// no locks and never abort, so they appear in no other counter.
	ReadTxns uint64
}

// DB is a single-node transactional database over integer items.
type DB struct {
	store  *storage.Store
	locks  *lock.Manager
	log    wal.Log
	gc     *wal.GroupCommitter
	policy SyncPolicy // fixed at Open

	mu      sync.Mutex
	applied map[uint64]bool
	nextID  uint64
	idMark  uint64
	closed  bool
	stats   Stats

	// Cross-partition two-phase commit state (see prepare.go): in-doubt
	// prepared transactions, their shared/exclusive item lock counts, and the
	// gids decided abort (presumed-abort bookkeeping so a late prepare or a
	// replayed decide is a no-op).  preparedCount mirrors len(prepared) so the
	// apply hot path can skip conflict checks without taking mu.
	prepared       map[uint64]*PreparedTxn
	preparedShared map[int]int
	preparedExcl   map[int]int
	decidedAbort   map[uint64]bool
	preparedCount  atomic.Int64

	// closedFlag mirrors closed for the lock-free read-transaction hot path;
	// readTxns counts BeginRead calls without taking mu.
	closedFlag atomic.Bool
	readTxns   atomic.Uint64
}

// Open creates a database from cfg and recovers committed state from its log.
func Open(cfg Config) (*DB, error) {
	if cfg.Items <= 0 {
		cfg.Items = 1
	}
	logStore := cfg.Log
	if logStore == nil {
		logStore = wal.NewMemLog()
	}
	d := &DB{
		store:   storage.NewStore(cfg.Items),
		locks:   lock.NewManager(),
		log:     logStore,
		gc:      wal.NewGroupCommitter(logStore),
		policy:  cfg.Policy,
		applied: make(map[uint64]bool),
		nextID:  1,
	}
	if err := d.recoverLocked(); err != nil {
		return nil, err
	}
	return d, nil
}

// recoverLocked rebuilds the committed state by redoing the write-ahead log.
// Updates belonging to transactions without a commit record are discarded.
func (d *DB) recoverLocked() error {
	pending := make(map[uint64]storage.WriteSet)
	err := d.log.Replay(func(r wal.Record) error {
		switch r.Kind {
		case wal.KindUpdate:
			ws, ok := pending[r.TxnID]
			if !ok {
				ws = make(storage.WriteSet)
				pending[r.TxnID] = ws
			}
			ws[int(r.Item)] = r.Value
		case wal.KindCommit:
			if ws, ok := pending[r.TxnID]; ok {
				if err := d.store.ApplyWriteSet(ws); err != nil {
					return fmt.Errorf("db: redo txn %d: %w", r.TxnID, err)
				}
				delete(pending, r.TxnID)
			}
			d.dropPreparedLocked(r.TxnID)
			d.applied[r.TxnID] = true
			if r.TxnID >= d.nextID {
				d.nextID = r.TxnID + 1
			}
		case wal.KindAbort:
			delete(pending, r.TxnID)
			if d.dropPreparedLocked(r.TxnID) != nil {
				if d.decidedAbort == nil {
					d.decidedAbort = make(map[uint64]bool)
				}
				d.decidedAbort[r.TxnID] = true
			}
		case wal.KindIDMark:
			d.idMark = max(d.idMark, r.TxnID)
		case wal.KindPrepare:
			coord, readItems, err := decodePrepareData(r.Data)
			if err != nil {
				return fmt.Errorf("db: redo prepare %d: %w", r.TxnID, err)
			}
			// The prepare's own update records precede it in the log;
			// snapshot them as the sub-transaction's in-doubt write set.
			// The writes stay in pending too: a decision record later in the
			// log resolves them like any other transaction.
			ws := pending[r.TxnID]
			writes := make([]storage.Write, 0, len(ws))
			for it, v := range ws {
				writes = append(writes, storage.Write{Item: it, Value: v})
			}
			sort.Slice(writes, func(i, j int) bool { return writes[i].Item < writes[j].Item })
			d.registerPreparedLocked(&PreparedTxn{
				GID: r.TxnID, Coord: coord, ReadItems: readItems, Writes: writes,
			})
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("db: recovery: %w", err)
	}
	return nil
}

// IDMark returns the largest wal.KindIDMark in the log at Open (0: none).
func (d *DB) IDMark() uint64 { return d.idMark }

// Store exposes the underlying versioned store (used by the replication layer
// for certification and by tests for consistency checks).
func (d *DB) Store() *storage.Store { return d.store }

// Log exposes the underlying write-ahead log.
func (d *DB) Log() wal.Log { return d.log }

// Policy returns the sync policy the database was opened with.
func (d *DB) Policy() SyncPolicy { return d.policy }

// Stats returns a snapshot of the database counters.
func (d *DB) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Deadlocks = d.locks.Deadlocks()
	s.ReadTxns = d.readTxns.Load()
	return s
}

// Applied reports whether the transaction with the given id has already been
// applied (committed locally or installed through ApplyWriteSet).  This is
// the "testable transaction" interface of Sect. 2.2.
func (d *DB) Applied(txnID uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applied[txnID]
}

// ReadVersioned returns the newest committed value and version of an item as
// one atomic observation (both fields come from the same version-chain entry,
// so the pair can never mix a new value with an old version).  No locks are
// acquired; it is the version probe of certification at delivery.  For a
// multi-item consistent cut use Snapshot or BeginRead.
func (d *DB) ReadVersioned(item int) (int64, uint64, error) {
	return d.store.Read(item)
}

// Flush forces the write-ahead log to stable storage.
func (d *DB) Flush() error { return d.log.Sync() }

// Close closes the database and its log.
func (d *DB) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.closedFlag.Store(true)
	d.mu.Unlock()
	return d.log.Close()
}

// Begin starts a locally-executed transaction.  If id is zero a fresh
// identifier is assigned.
func (d *DB) Begin(id uint64) (*Txn, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	if id == 0 {
		id = d.nextID
		d.nextID++
	} else if id >= d.nextID {
		d.nextID = id + 1
	}
	if d.applied[id] {
		return nil, fmt.Errorf("%w: txn %d", ErrAlreadyApplied, id)
	}
	return &Txn{
		db:     d,
		id:     id,
		writes: make(storage.WriteSet),
	}, nil
}

// ApplyWriteSet installs the write set of a remotely-certified transaction
// exactly once.  The first return value reports whether the write set was
// applied (false when the transaction had already been applied, e.g. a
// replayed end-to-end atomic broadcast message).  Under SyncOnCommit the
// commit record is forced before the writes become visible in the store.
func (d *DB) ApplyWriteSet(txnID uint64, ws storage.WriteSet) (bool, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false, ErrClosed
	}
	if d.applied[txnID] {
		d.stats.SkippedDup++
		d.mu.Unlock()
		return false, nil
	}
	d.mu.Unlock()

	// Lock the written items (sorted to avoid deadlocks between appliers).
	items := make([]int, 0, len(ws))
	for it := range ws {
		items = append(items, it)
	}
	sort.Ints(items)
	for _, it := range items {
		if err := d.locks.Acquire(txnID, it, lock.Exclusive); err != nil {
			d.locks.ReleaseAll(txnID)
			return false, fmt.Errorf("db: apply writeset of txn %d: %w", txnID, err)
		}
	}
	defer d.locks.ReleaseAll(txnID)

	for _, it := range items {
		if _, err := d.log.Append(wal.Record{Kind: wal.KindUpdate, TxnID: txnID, Item: int64(it), Value: ws[it]}); err != nil {
			return false, fmt.Errorf("db: log update: %w", err)
		}
	}
	lsn, err := d.log.Append(wal.Record{Kind: wal.KindCommit, TxnID: txnID})
	if err != nil {
		return false, fmt.Errorf("db: log commit: %w", err)
	}
	if d.policy == SyncOnCommit {
		if err := d.gc.WaitDurable(lsn); err != nil {
			return false, fmt.Errorf("db: force log: %w", err)
		}
	}
	if err := d.store.ApplyWriteSet(ws); err != nil {
		return false, fmt.Errorf("db: install writeset: %w", err)
	}
	d.mu.Lock()
	d.applied[txnID] = true
	d.stats.AppliedRemote++
	d.stats.Commits++
	d.mu.Unlock()
	return true, nil
}

// AbortWaiting externally aborts txnID's lock acquisition: any Acquire
// blocked on its behalf returns lock.ErrAborted and every lock it holds is
// released.  It is the cancellation hook for a caller whose context expired
// while the transaction may be blocked in 2PL — never call it once the
// transaction's Commit has started, and call ForgetTxn after the
// transaction has fully terminated.
func (d *DB) AbortWaiting(txnID uint64) { d.locks.Abort(txnID) }

// ForgetTxn clears residual lock-manager bookkeeping for an externally
// aborted transaction (see AbortWaiting).
func (d *DB) ForgetTxn(txnID uint64) { d.locks.Forget(txnID) }

// ForceTo blocks until every log record with an LSN <= lsn is durable,
// sharing forces with concurrent callers through the group committer.  The
// batched replica apply loop uses it to force a whole batch of staged
// transactions (StageWrites) with a single Sync.
func (d *DB) ForceTo(lsn wal.LSN) error { return d.gc.WaitDurable(lsn) }

// StageWrites is the serial half of the parallel apply pipeline: it performs
// the exactly-once check, appends the update and commit records of a
// certified remote transaction to the log in delivery order, and marks the
// transaction applied — without forcing the log and without installing the
// writes into the store.  It returns false when the transaction had already
// been applied (a replayed delivery), and otherwise the LSN of the commit
// record so the caller knows how far a batch force must reach.  writes must
// be sorted by item and duplicate-free.
//
// The caller is responsible for (a) eventually installing the staged writes
// with InstallWrites, before processing any later delivery of the same
// transaction's items outside the current batch, and (b) not externalising
// the outcome before its batch force.
func (d *DB) StageWrites(txnID uint64, writes []storage.Write) (bool, wal.LSN, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false, 0, ErrClosed
	}
	if d.applied[txnID] {
		d.stats.SkippedDup++
		d.mu.Unlock()
		return false, 0, nil
	}
	d.mu.Unlock()

	var lastLSN wal.LSN
	for _, w := range writes {
		lsn, err := d.log.Append(wal.Record{Kind: wal.KindUpdate, TxnID: txnID, Item: int64(w.Item), Value: w.Value})
		if err != nil {
			return false, 0, fmt.Errorf("db: log update: %w", err)
		}
		lastLSN = lsn
	}
	lsn, err := d.log.Append(wal.Record{Kind: wal.KindCommit, TxnID: txnID})
	if err != nil {
		return false, 0, fmt.Errorf("db: log commit: %w", err)
	}
	lastLSN = lsn

	// Mark applied only after the commit record is in the log: a failed
	// append must leave the transaction re-deliverable, not silently skipped
	// by the dup check forever.  (Staging is serial per replica, so the
	// check-then-mark pair cannot race another stage of the same txn.)
	d.mu.Lock()
	d.applied[txnID] = true
	d.stats.AppliedRemote++
	d.stats.Commits++
	d.mu.Unlock()
	return true, lastLSN, nil
}

// InstallWrites is the parallel half of the apply pipeline: it makes a staged
// write set visible in the store.  Unlike ApplyWriteSet it does not go
// through the lock manager — the caller must guarantee that no conflicting
// write set (one sharing an item) is installed concurrently; the apply
// scheduler's conflict graph provides exactly that guarantee, and the store's
// lock stripes serialise installs against concurrent readers.
func (d *DB) InstallWrites(writes []storage.Write) error {
	if err := d.store.ApplyWrites(writes); err != nil {
		return fmt.Errorf("db: install writeset: %w", err)
	}
	return nil
}

// RecordAbort records that a transaction was certified-aborted so that a
// replayed delivery does not try to apply it again.
func (d *DB) RecordAbort(txnID uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if d.applied[txnID] {
		return nil
	}
	if _, err := d.log.Append(wal.Record{Kind: wal.KindAbort, TxnID: txnID}); err != nil {
		return fmt.Errorf("db: log abort: %w", err)
	}
	d.stats.Aborts++
	return nil
}

// Txn is a locally executed transaction under strict two-phase locking.
type Txn struct {
	db        *DB
	id        uint64
	writes    storage.WriteSet
	commitLSN wal.LSN
	done      bool
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// CommitLSN returns the log position of the transaction's commit record, or
// zero before Commit ran (or when the transaction wrote nothing and aborted).
// Under AsyncCommit the record is not necessarily durable yet; ForceTo closes
// the gap on demand.
func (t *Txn) CommitLSN() wal.LSN { return t.commitLSN }

// Read returns the value of item as seen by the transaction (its own writes
// first, then the committed state), acquiring a shared lock.
func (t *Txn) Read(item int) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	if v, ok := t.writes[item]; ok {
		return v, nil
	}
	if err := t.db.locks.Acquire(t.id, item, lock.Shared); err != nil {
		return 0, err
	}
	v, _, err := t.db.store.Read(item)
	return v, err
}

// Write buffers a new value for item, acquiring an exclusive lock.
func (t *Txn) Write(item int, value int64) error {
	if t.done {
		return ErrTxnDone
	}
	if err := t.db.locks.Acquire(t.id, item, lock.Exclusive); err != nil {
		return err
	}
	if _, _, err := t.db.store.Read(item); err != nil {
		return err
	}
	t.writes[item] = value
	return nil
}

// WriteSet returns a copy of the transaction's buffered writes.
func (t *Txn) WriteSet() storage.WriteSet {
	out := make(storage.WriteSet, len(t.writes))
	for k, v := range t.writes {
		out[k] = v
	}
	return out
}

// Commit makes the transaction durable according to the database sync policy
// and installs its writes.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	defer t.db.locks.ReleaseAll(t.id)

	var lastLSN wal.LSN
	for item, value := range t.writes {
		lsn, err := t.db.log.Append(wal.Record{Kind: wal.KindUpdate, TxnID: t.id, Item: int64(item), Value: value})
		if err != nil {
			return fmt.Errorf("db: log update: %w", err)
		}
		lastLSN = lsn
	}
	lsn, err := t.db.log.Append(wal.Record{Kind: wal.KindCommit, TxnID: t.id})
	if err != nil {
		return fmt.Errorf("db: log commit: %w", err)
	}
	lastLSN = lsn
	t.commitLSN = lastLSN
	if t.db.Policy() == SyncOnCommit {
		if err := t.db.gc.WaitDurable(lastLSN); err != nil {
			return fmt.Errorf("db: force log: %w", err)
		}
	}
	if len(t.writes) > 0 {
		if err := t.db.store.ApplyWriteSet(t.writes); err != nil {
			return fmt.Errorf("db: install writes: %w", err)
		}
	}
	t.db.mu.Lock()
	t.db.applied[t.id] = true
	t.db.stats.Commits++
	t.db.mu.Unlock()
	return nil
}

// Abort drops the transaction's buffered writes and releases its locks.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	t.db.locks.ReleaseAll(t.id)
	t.db.mu.Lock()
	t.db.stats.Aborts++
	t.db.mu.Unlock()
	if _, err := t.db.log.Append(wal.Record{Kind: wal.KindAbort, TxnID: t.id}); err != nil {
		return fmt.Errorf("db: log abort: %w", err)
	}
	return nil
}
