package db

import (
	"sync/atomic"
	"testing"

	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
)

// countingLog wraps a wal.Log and counts Sync calls.
type countingLog struct {
	wal.Log
	syncs int32
}

func (c *countingLog) Sync() error {
	atomic.AddInt32(&c.syncs, 1)
	return c.Log.Sync()
}

// TestBatchApplyForcesOnce stages and installs a batch of certified write
// sets the way the replica apply loop does and checks that the whole batch
// becomes durable with a single group-committed force, instead of one per
// transaction as ApplyWriteSet would issue under SyncOnCommit.
func TestBatchApplyForcesOnce(t *testing.T) {
	log := &countingLog{Log: wal.NewMemLog()}
	d, err := Open(Config{Items: 64, Policy: SyncOnCommit, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const batch = 8
	var last wal.LSN
	for i := 1; i <= batch; i++ {
		writes := []storage.Write{{Item: i, Value: int64(100 + i)}}
		applied, lsn, err := d.StageWrites(uint64(i), writes)
		if err != nil || !applied {
			t.Fatalf("stage %d = (%v, %v)", i, applied, err)
		}
		if err := d.InstallWrites(writes); err != nil {
			t.Fatal(err)
		}
		if lsn <= last {
			t.Fatalf("LSNs must advance: txn %d got %d after %d", i, lsn, last)
		}
		last = lsn
	}
	if got := atomic.LoadInt32(&log.syncs); got != 0 {
		t.Fatalf("staging issued %d forces, want 0", got)
	}
	if err := d.ForceTo(last); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&log.syncs); got != 1 {
		t.Fatalf("batch force issued %d syncs, want 1", got)
	}

	// A second force over the same prefix is a no-op (group committer).
	if err := d.ForceTo(last); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&log.syncs); got != 1 {
		t.Fatalf("re-forcing a durable prefix synced again (%d syncs)", got)
	}
}

// TestBatchApplyDurableAfterCrash checks that a batch forced once recovers
// completely: every transaction of the batch is present after the crash.
func TestBatchApplyDurableAfterCrash(t *testing.T) {
	mem := wal.NewMemLog()
	d, err := Open(Config{Items: 16, Policy: SyncOnCommit, Log: mem})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 4
	var last wal.LSN
	for i := 1; i <= batch; i++ {
		writes := []storage.Write{{Item: i, Value: int64(10 * i)}}
		_, lsn, err := d.StageWrites(uint64(i), writes)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.InstallWrites(writes); err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if err := d.ForceTo(last); err != nil {
		t.Fatal(err)
	}
	d, err = crashAndReopen(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= batch; i++ {
		if !d.Applied(uint64(i)) {
			t.Fatalf("txn %d lost after crash despite the batch force", i)
		}
		v, _, err := d.ReadVersioned(i)
		if err != nil || v != int64(10*i) {
			t.Fatalf("item %d = (%d, %v), want %d", i, v, err, 10*i)
		}
	}
}

// TestApplyWriteSetStillForcesPerTxn pins the unbatched contract: the plain
// ApplyWriteSet forces on every call under SyncOnCommit.
func TestApplyWriteSetStillForcesPerTxn(t *testing.T) {
	log := &countingLog{Log: wal.NewMemLog()}
	d, err := Open(Config{Items: 16, Policy: SyncOnCommit, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 1; i <= 3; i++ {
		if _, err := d.ApplyWriteSet(uint64(i), storage.WriteSet{i: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := atomic.LoadInt32(&log.syncs); got != 3 {
		t.Fatalf("ApplyWriteSet issued %d forces for 3 txns, want 3", got)
	}
}
