// Package db implements the local database component of the paper's model
// (Sect. 2.2): it stores a full copy of the database, enforces durability
// through a write-ahead log, recovers committed state after a crash, and
// provides the "testable transactions" facility (a transaction is applied at
// most once even if it is submitted multiple times) that the replication
// layer relies on.  The replication layer stages and installs write sets it
// has certified (StageWrites, InstallWrites) and reads MVCC snapshots
// (BeginRead); Txn is a standalone optimistic transaction over the same
// primitives.
package db

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
)

// SyncPolicy controls whether Txn.Commit forces the write-ahead log.  The
// replication layer forces through ForceTo at its own response point and
// does not consult it.
type SyncPolicy int

const (
	// SyncOnCommit forces the log before Txn.Commit returns.
	SyncOnCommit SyncPolicy = iota
	// AsyncCommit lets Txn.Commit return before the log is forced; Flush or
	// ForceTo forces it later.
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
	// Policy selects Txn.Commit's durability behaviour.
	Policy SyncPolicy
	// Log is the stable-storage log.  When nil an in-memory log is created.
	Log wal.Log
}

// Stats are cumulative counters maintained by the database.
type Stats struct {
	Commits       uint64
	Aborts        uint64
	AppliedRemote uint64
	SkippedDup    uint64
	// ReadTxns counts read-only snapshot transactions (BeginRead); they take
	// no locks and never abort, so they appear in no other counter.
	ReadTxns uint64
}

// DB is a single-node transactional database over integer items.
type DB struct {
	store  *storage.Store
	log    wal.Log
	gc     *wal.GroupCommitter
	policy SyncPolicy // fixed at Open

	// commitMu serialises Txn.Commit's validate-stage-install sequence.
	commitMu sync.Mutex

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

// Stats returns a snapshot of the database counters.
func (d *DB) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.ReadTxns = d.readTxns.Load()
	return s
}

// Applied reports whether the transaction with the given id has already been
// applied (committed by a Txn or staged through StageWrites).  This is
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
		reads:  make(map[int]uint64),
		writes: make(storage.WriteSet),
	}, nil
}

// ForceTo blocks until every log record with an LSN <= lsn is durable,
// sharing forces with concurrent callers through the group committer.  The
// batched replica apply loop uses it to force a whole batch of staged
// transactions (StageWrites) with a single Sync.
func (d *DB) ForceTo(lsn wal.LSN) error { return d.gc.WaitDurable(lsn) }

// StageWrites is the serial half of the apply pipeline: it performs the
// exactly-once check, appends the update and commit records of a certified
// transaction to the log in commit order, and marks the
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

// InstallWrites is the second half of the apply pipeline: it makes a staged
// write set visible in the store.  The caller must guarantee that no
// conflicting write set (one sharing an item) is installed concurrently —
// the replica installs under its apply barrier, Txn.Commit under commitMu —
// and the store's lock stripes serialise installs against concurrent
// readers.
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

// errStaleRead fails a Txn.Commit whose read set a concurrent commit
// overwrote.
var errStaleRead = errors.New("db: an item the transaction read was overwritten by a concurrent commit")

// Txn is a locally executed optimistic transaction: reads see the newest
// committed state and record its version, writes are buffered, and Commit
// validates the read versions before it stages and installs the writes
// (first-updater-wins, the rule the replication layer certifies by).  It
// takes no locks, so it never blocks or deadlocks; a conflict fails Commit.
type Txn struct {
	db        *DB
	id        uint64
	reads     map[int]uint64
	writes    storage.WriteSet
	commitLSN wal.LSN
	done      bool
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// CommitLSN returns the log position of the transaction's commit record, or
// zero before Commit ran (or when the transaction aborted).  Under
// AsyncCommit the record is not necessarily durable yet; ForceTo closes the
// gap on demand.
func (t *Txn) CommitLSN() wal.LSN { return t.commitLSN }

// Read returns the value of item as seen by the transaction (its own writes
// first, then the committed state), recording the version it read for
// Commit's validation.
func (t *Txn) Read(item int) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	if v, ok := t.writes[item]; ok {
		return v, nil
	}
	v, ver, err := t.db.store.Read(item)
	if err != nil {
		return 0, err
	}
	if _, seen := t.reads[item]; !seen {
		t.reads[item] = ver
	}
	return v, nil
}

// Write buffers a new value for item.
func (t *Txn) Write(item int, value int64) error {
	if t.done {
		return ErrTxnDone
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

// Commit validates the transaction's reads, logs and installs its writes,
// and, under SyncOnCommit, waits until the commit record is durable.  It
// fails when an item the transaction read has been overwritten since.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	writes := make([]storage.Write, 0, len(t.writes))
	for item, value := range t.writes {
		writes = append(writes, storage.Write{Item: item, Value: value})
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].Item < writes[j].Item })

	d := t.db
	d.commitMu.Lock()
	for item, ver := range t.reads {
		if _, cur, _ := d.store.Read(item); cur != ver {
			d.commitMu.Unlock()
			return fmt.Errorf("%w: txn %d, item %d", errStaleRead, t.id, item)
		}
	}
	fresh, lsn, err := d.StageWrites(t.id, writes)
	if err == nil && fresh && len(writes) > 0 {
		err = d.InstallWrites(writes)
	}
	d.commitMu.Unlock()
	if err != nil {
		return err
	}
	if !fresh {
		return fmt.Errorf("%w: txn %d", ErrAlreadyApplied, t.id)
	}
	t.commitLSN = lsn
	if d.policy == SyncOnCommit {
		if err := d.ForceTo(lsn); err != nil {
			return fmt.Errorf("db: force log: %w", err)
		}
	}
	return nil
}

// Abort drops the transaction's buffered writes.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	t.db.mu.Lock()
	t.db.stats.Aborts++
	t.db.mu.Unlock()
	if _, err := t.db.log.Append(wal.Record{Kind: wal.KindAbort, TxnID: t.id}); err != nil {
		return fmt.Errorf("db: log abort: %w", err)
	}
	return nil
}
