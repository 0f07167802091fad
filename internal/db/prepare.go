package db

import (
	"encoding/binary"
	"fmt"
	"sort"

	"groupsafe/internal/storage"
	"groupsafe/internal/varint"
	"groupsafe/internal/wal"
)

// Cross-partition two-phase commit support: a transaction that spans several
// keyspace partitions is decomposed by the partition router into per-partition
// sub-transactions.  Each partition delivers the sub-transaction through its
// own total order and *prepares* it — certifies, logs the write set plus a
// KindPrepare record, and holds certification-level locks on the touched
// items — then a later decide record (commit or abort), also delivered
// through the partition's total order, resolves it.  Recovery keeps prepared
// transactions in-doubt (presumed abort: a prepare with no decision is
// resolved by asking the coordinator partition, whose WAL holds the decision
// record if one was ever made).

// PreparedTxn is one in-doubt cross-partition sub-transaction.
type PreparedTxn struct {
	// GID is the global transaction id assigned by the partition router.
	GID uint64
	// Coord is the coordinator partition id whose WAL holds the decision.
	Coord int
	// ReadItems are the items the sub-transaction read (shared locks).
	ReadItems []int
	// Writes is this partition's share of the write set (exclusive locks),
	// sorted by item.
	Writes []storage.Write
}

// encodePrepareData packs the coordinator partition id and the read items
// into the Data field of a KindPrepare record.
func encodePrepareData(coord int, readItems []int) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64*(2+len(readItems)))
	buf = binary.AppendUvarint(buf, uint64(coord))
	buf = binary.AppendUvarint(buf, uint64(len(readItems)))
	for _, it := range readItems {
		buf = binary.AppendUvarint(buf, uint64(it))
	}
	return buf
}

func decodePrepareData(data []byte) (coord int, readItems []int, err error) {
	r := varint.NewReader(data)
	coord = int(r.Uvarint())
	readItems = make([]int, r.Count())
	for i := range readItems {
		readItems[i] = int(r.Uvarint())
	}
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("db: bad prepare record data: %w", err)
	}
	return coord, readItems, nil
}

// registerPreparedLocked indexes one prepared transaction; caller holds d.mu.
func (d *DB) registerPreparedLocked(p *PreparedTxn) {
	if d.prepared == nil {
		d.prepared = make(map[uint64]*PreparedTxn)
		d.preparedShared = make(map[int]int)
		d.preparedExcl = make(map[int]int)
	}
	d.prepared[p.GID] = p
	for _, it := range p.ReadItems {
		d.preparedShared[it]++
	}
	for _, w := range p.Writes {
		d.preparedExcl[w.Item]++
	}
	d.preparedCount.Add(1)
}

// dropPreparedLocked removes one prepared transaction; caller holds d.mu.
func (d *DB) dropPreparedLocked(gid uint64) *PreparedTxn {
	p, ok := d.prepared[gid]
	if !ok {
		return nil
	}
	delete(d.prepared, gid)
	for _, it := range p.ReadItems {
		if d.preparedShared[it]--; d.preparedShared[it] <= 0 {
			delete(d.preparedShared, it)
		}
	}
	for _, w := range p.Writes {
		if d.preparedExcl[w.Item]--; d.preparedExcl[w.Item] <= 0 {
			delete(d.preparedExcl, w.Item)
		}
	}
	d.preparedCount.Add(-1)
	return p
}

// HasPrepared reports whether any transaction is currently prepared, without
// taking the database mutex — the apply loop uses it to keep the normal
// (non-partitioned) certification path free of prepared-lock checks.
func (d *DB) HasPrepared() bool { return d.preparedCount.Load() > 0 }

// PreparedConflict reports whether a transaction reading readItems and
// writing writes conflicts with any currently prepared transaction under the
// usual shared/exclusive rule: its writes conflict with prepared reads or
// writes, and its reads conflict with prepared writes.  Certification aborts
// such transactions — a prepared-but-undecided transaction's outcome must not
// be invalidated by later deliveries.
func (d *DB) PreparedConflict(readItems []int, writes []storage.Write) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.prepared) == 0 {
		return false
	}
	for _, w := range writes {
		if d.preparedExcl[w.Item] > 0 || d.preparedShared[w.Item] > 0 {
			return true
		}
	}
	for _, it := range readItems {
		if d.preparedExcl[it] > 0 {
			return true
		}
	}
	return false
}

// StagePrepare logs a cross-partition sub-transaction as prepared: its update
// records plus a KindPrepare record are appended (not forced — the caller
// forces at the transaction's safety level), and its items become locked
// against conflicting certifications until a decision arrives.  It returns
// false when the transaction is already decided or prepared (a replayed
// delivery, or a prepare arriving after a presumed-abort resolution) — the
// prepare is then a no-op, which is exactly the presumed-abort contract.
// writes must be sorted by item and duplicate-free.
func (d *DB) StagePrepare(gid uint64, coord int, readItems []int, writes []storage.Write) (bool, wal.LSN, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false, 0, ErrClosed
	}
	if d.applied[gid] || d.decidedAbort[gid] || d.prepared[gid] != nil {
		d.stats.SkippedDup++
		d.mu.Unlock()
		return false, 0, nil
	}
	d.mu.Unlock()

	var lastLSN wal.LSN
	for _, w := range writes {
		lsn, err := d.log.Append(wal.Record{Kind: wal.KindUpdate, TxnID: gid, Item: int64(w.Item), Value: w.Value})
		if err != nil {
			return false, 0, fmt.Errorf("db: log update: %w", err)
		}
		lastLSN = lsn
	}
	lsn, err := d.log.Append(wal.Record{
		Kind: wal.KindPrepare, TxnID: gid, Data: encodePrepareData(coord, readItems),
	})
	if err != nil {
		return false, 0, fmt.Errorf("db: log prepare: %w", err)
	}
	lastLSN = lsn

	d.mu.Lock()
	d.registerPreparedLocked(&PreparedTxn{GID: gid, Coord: coord, ReadItems: readItems, Writes: writes})
	d.mu.Unlock()
	return true, lastLSN, nil
}

// DecidePrepared resolves a cross-partition transaction: the first decision
// delivered for a gid wins and every later one (including replays) returns
// the recorded outcome without touching the log.  On a fresh commit decision
// it appends the KindCommit record (plus update records when no local prepare
// staged them — a replica that recovered past its prepare still installs the
// full write set carried by the decide payload), marks the transaction
// applied, and returns the writes the caller must install into the store.
// On a fresh abort decision it appends KindAbort and releases the prepared
// locks.  payloadWrites must be sorted by item and duplicate-free.
func (d *DB) DecidePrepared(gid uint64, commit bool, payloadWrites []storage.Write) (committed bool, install []storage.Write, fresh bool, lsn wal.LSN, err error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false, nil, false, 0, ErrClosed
	}
	if d.applied[gid] {
		d.stats.SkippedDup++
		d.mu.Unlock()
		return true, nil, false, 0, nil
	}
	if d.decidedAbort[gid] {
		d.stats.SkippedDup++
		d.mu.Unlock()
		return false, nil, false, 0, nil
	}
	prep := d.dropPreparedLocked(gid)
	d.mu.Unlock()

	if !commit {
		var alsn wal.LSN
		if alsn, err = d.log.Append(wal.Record{Kind: wal.KindAbort, TxnID: gid}); err != nil {
			return false, nil, false, 0, fmt.Errorf("db: log abort: %w", err)
		}
		d.mu.Lock()
		if d.decidedAbort == nil {
			d.decidedAbort = make(map[uint64]bool)
		}
		d.decidedAbort[gid] = true
		d.stats.Aborts++
		d.mu.Unlock()
		return false, nil, true, alsn, nil
	}

	writes := payloadWrites
	if prep != nil {
		// The prepare already logged this partition's update records; its
		// write set is authoritative.
		writes = prep.Writes
	} else {
		for _, w := range writes {
			wlsn, werr := d.log.Append(wal.Record{Kind: wal.KindUpdate, TxnID: gid, Item: int64(w.Item), Value: w.Value})
			if werr != nil {
				return false, nil, false, 0, fmt.Errorf("db: log update: %w", werr)
			}
			lsn = wlsn
		}
	}
	clsn, cerr := d.log.Append(wal.Record{Kind: wal.KindCommit, TxnID: gid})
	if cerr != nil {
		return false, nil, false, 0, fmt.Errorf("db: log commit: %w", cerr)
	}
	d.mu.Lock()
	d.applied[gid] = true
	d.stats.AppliedRemote++
	d.stats.Commits++
	d.mu.Unlock()
	return true, writes, true, clsn, nil
}

// PreparedGIDs returns the global ids of all in-doubt prepared transactions,
// sorted; the partition router's recovery pass resolves each against its
// coordinator partition.
func (d *DB) PreparedGIDs() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, 0, len(d.prepared))
	for gid := range d.prepared {
		out = append(out, gid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PreparedInfo returns a copy of one prepared transaction's bookkeeping.
func (d *DB) PreparedInfo(gid uint64) (PreparedTxn, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.prepared[gid]
	if !ok {
		return PreparedTxn{}, false
	}
	cp := PreparedTxn{GID: p.GID, Coord: p.Coord}
	cp.ReadItems = append(cp.ReadItems, p.ReadItems...)
	cp.Writes = append(cp.Writes, p.Writes...)
	return cp, true
}

// PreparedSnapshot returns a copy of every prepared transaction (for state
// transfer to a recovering replica) plus the gids decided abort, so the
// receiver reconstructs the same certification-lock state as the donor.
func (d *DB) PreparedSnapshot() (prepared []PreparedTxn, aborted []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range d.prepared {
		cp := PreparedTxn{GID: p.GID, Coord: p.Coord}
		cp.ReadItems = append(cp.ReadItems, p.ReadItems...)
		cp.Writes = append(cp.Writes, p.Writes...)
		prepared = append(prepared, cp)
	}
	sort.Slice(prepared, func(i, j int) bool { return prepared[i].GID < prepared[j].GID })
	for gid := range d.decidedAbort {
		aborted = append(aborted, gid)
	}
	sort.Slice(aborted, func(i, j int) bool { return aborted[i] < aborted[j] })
	return prepared, aborted
}

// InstallPrepared merges prepared transactions and abort decisions received
// via state transfer: entries already decided locally are skipped (the local
// WAL is authoritative), fresh ones are logged exactly like a locally staged
// prepare so a later crash still recovers them.
func (d *DB) InstallPrepared(prepared []PreparedTxn, aborted []uint64) error {
	for _, gid := range aborted {
		d.mu.Lock()
		known := d.applied[gid] || d.decidedAbort[gid]
		if !known {
			d.dropPreparedLocked(gid)
			if d.decidedAbort == nil {
				d.decidedAbort = make(map[uint64]bool)
			}
			d.decidedAbort[gid] = true
		}
		d.mu.Unlock()
		if !known {
			if _, err := d.log.Append(wal.Record{Kind: wal.KindAbort, TxnID: gid}); err != nil {
				return fmt.Errorf("db: log abort: %w", err)
			}
		}
	}
	for i := range prepared {
		p := prepared[i]
		if _, _, err := d.StagePrepare(p.GID, p.Coord, p.ReadItems, p.Writes); err != nil {
			return err
		}
	}
	return nil
}
