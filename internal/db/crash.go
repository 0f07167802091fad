package db

import "groupsafe/internal/storage"

// CommittedWriteCount returns the total number of version bumps across all
// items, a cheap fingerprint used by tests to compare replica states.
func (d *DB) CommittedWriteCount() uint64 {
	var total uint64
	snap := d.store.Snapshot()
	for _, it := range snap {
		total += it.Version
	}
	return total
}

// SnapshotState returns a deep copy of the committed item state, used for the
// checkpoint-based state transfer of the dynamic crash no-recovery model.
func (d *DB) SnapshotState() []storage.Item { return d.store.Snapshot() }

// RestoreState installs a state snapshot received through state transfer and
// marks the given transactions as applied.
func (d *DB) RestoreState(snapshot []storage.Item, appliedTxns []uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.store.Restore(snapshot)
	for _, id := range appliedTxns {
		d.applied[id] = true
		if id >= d.nextID {
			d.nextID = id + 1
		}
	}
}

// MergeNewerState merges a state-transfer snapshot into a running database:
// items are taken per-item only where the snapshot's version is strictly
// newer (storage.Store.MergeNewer), and the given transactions are added to
// the applied set.  Unlike RestoreState this is safe while transactions are
// being applied concurrently — it can only add missing state, never revert a
// concurrent install.  Returns the number of items taken.
func (d *DB) MergeNewerState(snapshot []storage.Item, appliedTxns []uint64) int {
	d.mu.Lock()
	for _, id := range appliedTxns {
		d.applied[id] = true
		if id >= d.nextID {
			d.nextID = id + 1
		}
	}
	d.mu.Unlock()
	return d.store.MergeNewer(snapshot)
}

// AppliedTxns returns the identifiers of every transaction applied so far
// (sorted order is not guaranteed); it is shipped along with state snapshots
// so that the receiving replica can keep enforcing exactly-once application.
func (d *DB) AppliedTxns() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, 0, len(d.applied))
	for id := range d.applied {
		out = append(out, id)
	}
	return out
}
