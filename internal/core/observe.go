package core

import (
	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
)

// This file holds the observability hooks the deterministic fault-injection
// fuzzer (internal/sim/fuzz) uses to extract the committed history and the
// durability frontier of a replica.  Everything here is read-only with
// respect to the replication protocol: the hooks observe, they never steer.

// AppliedRecord is one externalised transaction as seen by one replica's
// apply loop: its position in the total order, its identifier, and the
// certification outcome.  Recorded only when ReplicaConfig.RecordApplied is
// set.
type AppliedRecord struct {
	// Seq is the atomic broadcast sequence number of the delivery.
	Seq uint64
	// TxnID is the transaction identifier assigned by the delegate.
	TxnID uint64
	// Outcome is the commit/abort decision every replica reached.
	Outcome Outcome
	// Level is the safety level the transaction was externalised at.
	Level SafetyLevel
	// Vote marks a cross-partition PREPARE entry: Outcome is this
	// partition's certification vote, not a final transaction outcome (the
	// later decide entry, same TxnID, carries that).  Always false outside
	// partitioned 2PC.
	Vote bool
}

// AppliedLog returns a copy of the replica's applied-transaction log, in
// apply order.  Empty unless the replica was configured with RecordApplied.
// The log is an observer owned by the harness: it deliberately survives
// simulated crashes (a real invariant checker sits outside the crash model),
// so after a crash-recovery it may contain the same sequence number twice —
// once from the pre-crash incarnation and once from the end-to-end replay.
func (r *Replica) AppliedLog() []AppliedRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]AppliedRecord, len(r.appliedLog))
	copy(out, r.appliedLog)
	return out
}

// DurableLSN returns the durable frontier of the replica's log: the LSN of
// the last record that would survive a crash at this instant.  The fuzzer
// samples it just before injecting a crash to decide which acknowledged
// transactions a group-safe cluster was still allowed to lose.  Logs that do
// not track an explicit sync frontier (wal.FileLog appends are on disk as
// soon as the write syscall returns; only the OS cache is at risk) report
// their last appended LSN.
func (r *Replica) DurableLSN() uint64 {
	if l, ok := r.cfg.DBLog.(interface{ DurableLSN() wal.LSN }); ok {
		return uint64(l.DurableLSN())
	}
	return uint64(r.cfg.DBLog.LastLSN())
}

// StoreItems returns a copy of the replica's committed store contents
// (value and version per item), the same snapshot the cluster-wide
// consistency check compares.
func (r *Replica) StoreItems() []storage.Item {
	return r.dbase.Store().Snapshot()
}
