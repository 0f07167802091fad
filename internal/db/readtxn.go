package db

import (
	"fmt"

	"groupsafe/internal/storage"
)

// This file is the read-only fast path of the database component: snapshot
// transactions that take no locks at all.  A ReadTxn reads the
// newest committed version of each item at or below its snapshot sequence,
// so it observes a consistent prefix of the replica's apply order — no dirty
// reads (half-installed transactions are below the visible watermark), and
// repeatable reads for free (the sequence is fixed at Begin).  Because it
// takes no locks it can never block behind a writer, never deadlock, and
// never aborts; concurrent update transactions proceed untouched.  The MVCC
// store keeps every version a live ReadTxn can see until the transaction is
// closed (watermark-driven GC), so long-running queries cost memory, not
// concurrency.

// Snapshot returns a point-in-time, lock-free read handle on the committed
// state (the raw storage-level snapshot; most callers want BeginRead).  The
// caller must Release it to unpin its versions from the garbage collector.
func (d *DB) Snapshot() (*storage.Snap, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	d.mu.Unlock()
	return d.store.AcquireSnap(), nil
}

// ReadTxn is a read-only snapshot transaction: it acquires no locks, sees the
// committed state as of its snapshot sequence, and never blocks or aborts.
type ReadTxn struct {
	db   *DB
	snap storage.Snap
	done bool
}

// BeginRead starts a read-only snapshot transaction.
func (d *DB) BeginRead() (*ReadTxn, error) {
	// The closed check is deliberately lock-free (queries are the hot path);
	// a read transaction racing Close still reads consistent in-memory state
	// — only the log is closed.
	if d.closedFlag.Load() {
		return nil, ErrClosed
	}
	d.readTxns.Add(1)
	return &ReadTxn{db: d, snap: d.store.AcquireSnapVal()}, nil
}

// Seq returns the transaction's snapshot sequence (the replica-local apply
// sequence of the newest transaction it can see).
func (t *ReadTxn) Seq() uint64 { return t.snap.Seq() }

// Read returns the value of item as of the snapshot.
func (t *ReadTxn) Read(item int) (int64, error) {
	v, _, err := t.ReadVersioned(item)
	return v, err
}

// ReadVersioned returns the value and certification version of item as of
// the snapshot, as one atomic observation.
func (t *ReadTxn) ReadVersioned(item int) (int64, uint64, error) {
	if t.done {
		return 0, 0, ErrTxnDone
	}
	return t.snap.Read(item)
}

// Close ends the transaction and unpins its versions from the garbage
// collector.  Read-only transactions always "commit"; Close is idempotent.
func (t *ReadTxn) Close() error {
	if t.done {
		return nil
	}
	t.done = true
	t.snap.Release()
	return nil
}

// VisibleSeq returns the database's current snapshot sequence: every
// transaction applied at or below it is readable by a new ReadTxn.  It is
// the freshness token the replication layer hands to clients for
// monotonic-session reads.
func (d *DB) VisibleSeq() uint64 { return d.store.VisibleSeq() }

// ReadAt returns the value and version of item as of a past snapshot
// sequence.  The versions are only guaranteed to still exist for sequences
// held live by a ReadTxn or Snap; it exists for tests and diagnostics.
func (d *DB) ReadAt(item int, seq uint64) (int64, uint64, error) {
	v, ver, err := d.store.ReadAt(item, seq)
	if err != nil {
		return 0, 0, fmt.Errorf("db: read at %d: %w", seq, err)
	}
	return v, ver, nil
}
