package db

import (
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
)

func openTestDB(t *testing.T, policy SyncPolicy) *DB {
	t.Helper()
	d, err := Open(Config{Items: 100, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestPolicyString(t *testing.T) {
	if SyncOnCommit.String() != "sync-on-commit" || AsyncCommit.String() != "async-commit" {
		t.Fatal("policy strings wrong")
	}
	if SyncPolicy(9).String() != "policy(9)" {
		t.Fatal("unknown policy string wrong")
	}
}

func TestBasicCommit(t *testing.T) {
	d := openTestDB(t, SyncOnCommit)
	txn, err := d.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if txn.ID() == 0 {
		t.Fatal("auto-assigned ID should not be zero")
	}
	if v, err := txn.Read(5); err != nil || v != 0 {
		t.Fatalf("read = %d, %v", v, err)
	}
	if err := txn.Write(5, 42); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes.
	if v, _ := txn.Read(5); v != 42 {
		t.Fatalf("read-your-writes = %d", v)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := d.ReadVersioned(5); v != 42 {
		t.Fatalf("committed value = %d", v)
	}
	if !d.Applied(txn.ID()) {
		t.Fatal("committed transaction not marked applied")
	}
	if d.Stats().Commits != 1 {
		t.Fatalf("commits = %d", d.Stats().Commits)
	}
}

func TestAbortDiscardsWrites(t *testing.T) {
	d := openTestDB(t, SyncOnCommit)
	txn, _ := d.Begin(0)
	txn.Write(7, 99)
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := d.ReadVersioned(7); v != 0 {
		t.Fatalf("aborted write visible: %d", v)
	}
	if d.Stats().Aborts != 1 {
		t.Fatalf("aborts = %d", d.Stats().Aborts)
	}
	// Operations after termination fail.
	if _, err := txn.Read(7); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("read after abort: %v", err)
	}
	if err := txn.Write(7, 1); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("write after abort: %v", err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("commit after abort: %v", err)
	}
	if err := txn.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double abort: %v", err)
	}
}

func TestWriteSetIsACopy(t *testing.T) {
	d := openTestDB(t, SyncOnCommit)
	txn, _ := d.Begin(0)
	txn.Write(3, 30)
	ws := txn.WriteSet()
	if len(ws) != 1 || ws[3] != 30 {
		t.Fatalf("write set = %v", ws)
	}
	// Mutating the returned copy must not affect the transaction.
	ws[3] = 99
	if txn.WriteSet()[3] != 30 {
		t.Fatal("accessor returned an aliased map")
	}
	txn.Abort()
}

func TestBeginDuplicateID(t *testing.T) {
	d := openTestDB(t, SyncOnCommit)
	txn, _ := d.Begin(77)
	txn.Write(1, 1)
	txn.Commit()
	if _, err := d.Begin(77); !errors.Is(err, ErrAlreadyApplied) {
		t.Fatalf("Begin with applied id: %v", err)
	}
	// Fresh IDs skip past explicitly used ones.
	txn2, _ := d.Begin(0)
	if txn2.ID() <= 77 {
		t.Fatalf("auto id %d should be after explicit 77", txn2.ID())
	}
	txn2.Abort()
}

func TestStageWritesExactlyOnce(t *testing.T) {
	d := openTestDB(t, SyncOnCommit)
	ws := []storage.Write{{Item: 1, Value: 11}, {Item: 2, Value: 22}}
	applied, err := applyWrites(d, 500, ws...)
	if err != nil || !applied {
		t.Fatalf("first apply = %v, %v", applied, err)
	}
	// Re-applying the same transaction (a replayed delivery) is a no-op.
	applied, err = applyWrites(d, 500, ws...)
	if err != nil || applied {
		t.Fatalf("second apply = %v, %v; want skipped", applied, err)
	}
	if versionOf(d, 1) != 1 || versionOf(d, 2) != 1 {
		t.Fatal("duplicate apply bumped versions twice")
	}
	st := d.Stats()
	if st.AppliedRemote != 1 || st.SkippedDup != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRecordAbort(t *testing.T) {
	d := openTestDB(t, SyncOnCommit)
	if err := d.RecordAbort(9); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Aborts != 1 {
		t.Fatal("abort not counted")
	}
	// Aborting an already-applied transaction is a no-op.
	applyWrites(d, 10, storage.Write{Item: 1, Value: 1})
	if err := d.RecordAbort(10); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Aborts != 1 {
		t.Fatal("abort of applied transaction should be ignored")
	}
}

func TestCrashLosesUnsyncedCommits(t *testing.T) {
	// With AsyncCommit, a commit acknowledged before the log is forced is
	// lost by a crash — exactly the 1-safe / group-safe durability gap the
	// paper discusses.
	d := openTestDB(t, AsyncCommit)
	txn, _ := d.Begin(0)
	txn.Write(3, 33)
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	d, err := crashAndReopen(d)
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := d.ReadVersioned(3); v != 0 {
		t.Fatalf("unsynced commit survived crash: %d", v)
	}
	if d.Applied(txn.ID()) {
		t.Fatal("lost transaction still marked applied")
	}
}

func TestCrashKeepsSyncedCommits(t *testing.T) {
	d := openTestDB(t, SyncOnCommit)
	txn, _ := d.Begin(0)
	txn.Write(3, 33)
	txn.Commit()

	txn2, _ := d.Begin(0)
	txn2.Write(4, 44)
	txn2.Commit()

	d, err := crashAndReopen(d)
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := d.ReadVersioned(3); v != 33 {
		t.Fatalf("synced commit lost: item3=%d", v)
	}
	if v, _, _ := d.ReadVersioned(4); v != 44 {
		t.Fatalf("synced commit lost: item4=%d", v)
	}
	if !d.Applied(txn.ID()) || !d.Applied(txn2.ID()) {
		t.Fatal("applied set not recovered")
	}
	// Versions are rebuilt deterministically.
	if versionOf(d, 3) != 1 || versionOf(d, 4) != 1 {
		t.Fatalf("versions after recovery = %d/%d", versionOf(d, 3), versionOf(d, 4))
	}
}

func TestAsyncCommitFlushMakesDurable(t *testing.T) {
	d := openTestDB(t, AsyncCommit)
	txn, _ := d.Begin(0)
	txn.Write(9, 90)
	txn.Commit()
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := crashAndReopen(d)
	if err != nil {
		t.Fatal(err)
	}
	if v, _, _ := d.ReadVersioned(9); v != 90 {
		t.Fatal("flushed commit lost by crash")
	}
}

func TestFileBackedDurabilityAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	fl, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Open(Config{Items: 10, Policy: SyncOnCommit, Log: fl})
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := d.Begin(0)
	txn.Write(1, 111)
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	fl2, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Open(Config{Items: 10, Policy: SyncOnCommit, Log: fl2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if v, _, _ := d2.ReadVersioned(1); v != 111 {
		t.Fatalf("value after reopen = %d", v)
	}
	if !d2.Applied(txn.ID()) {
		t.Fatal("applied set not rebuilt from file log")
	}
}

func TestStateTransferHelpers(t *testing.T) {
	src := openTestDB(t, SyncOnCommit)
	applyWrites(src, 1, storage.Write{Item: 1, Value: 10})
	applyWrites(src, 2, storage.Write{Item: 2, Value: 20})

	dst := openTestDB(t, SyncOnCommit)
	dst.RestoreState(src.SnapshotState(), src.AppliedTxns())
	if v, _, _ := dst.ReadVersioned(1); v != 10 {
		t.Fatal("state transfer did not copy values")
	}
	if !dst.Applied(1) || !dst.Applied(2) {
		t.Fatal("state transfer did not copy applied set")
	}
	// The receiver must not re-apply transferred transactions.
	applied, _ := applyWrites(dst, 2, storage.Write{Item: 2, Value: 999})
	if applied {
		t.Fatal("transferred transaction re-applied")
	}
	if src.CommittedWriteCount() != dst.CommittedWriteCount() {
		t.Fatal("state fingerprints differ after transfer")
	}
	// Fresh local transactions get ids beyond the transferred ones.
	txn, _ := dst.Begin(0)
	if txn.ID() <= 2 {
		t.Fatalf("post-transfer id = %d", txn.ID())
	}
	txn.Abort()
}

func TestConcurrentLocalTransactions(t *testing.T) {
	d := openTestDB(t, SyncOnCommit)
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	var committed sync.Map
	var retries atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				txn, err := d.Begin(0)
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				item := (w + i) % 10
				v, err := txn.Read(item)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if err := txn.Write(item, v+1); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if err := txn.Commit(); errors.Is(err, errStaleRead) {
					retries.Add(1)
					i-- // a concurrent commit overwrote item: retry
					continue
				} else if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				committed.Store(txn.ID(), true)
			}
		}(w)
	}
	wg.Wait()
	// Because every transaction reads x and writes x+1 and Commit validates
	// the read, the sum of final values equals the number of committed
	// increments: no update is lost, whatever the interleaving.
	var sum int64
	for i := 0; i < 10; i++ {
		v, _, _ := d.ReadVersioned(i)
		sum += v
	}
	var n int64
	committed.Range(func(_, _ interface{}) bool { n++; return true })
	if sum != n || n != workers*perWorker {
		t.Fatalf("lost updates: sum=%d committed=%d (want %d; %d retries)", sum, n, workers*perWorker, retries.Load())
	}
}

// TestCommitFailsOnStaleRead: a Txn whose read a later commit overwrote
// fails Commit and installs nothing, while a blind write to the same item
// commits in commit order.
func TestCommitFailsOnStaleRead(t *testing.T) {
	d := openTestDB(t, SyncOnCommit)
	stale, _ := d.Begin(0)
	blind, _ := d.Begin(0)
	if _, err := stale.Read(1); err != nil {
		t.Fatal(err)
	}
	w, _ := d.Begin(0)
	w.Write(1, 5)
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	blind.Write(1, 10)
	if err := blind.Commit(); err != nil {
		t.Fatalf("blind write: %v", err)
	}
	stale.Write(2, 20)
	if err := stale.Commit(); !errors.Is(err, errStaleRead) {
		t.Fatalf("commit over a stale read: %v", err)
	}
	if v, _, _ := d.ReadVersioned(2); v != 0 || d.Applied(stale.ID()) {
		t.Fatalf("failed commit left item 2 = %d, applied = %v", v, d.Applied(stale.ID()))
	}
	if v, _, _ := d.ReadVersioned(1); v != 10 || versionOf(d, 1) != 2 {
		t.Fatalf("item 1 = (%d, v%d), want the blind write's 10 at v2", v, versionOf(d, 1))
	}
}

func TestClosedDatabase(t *testing.T) {
	d, _ := Open(Config{Items: 10})
	d.Close()
	if _, err := d.Begin(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin on closed db: %v", err)
	}
	if _, _, err := d.StageWrites(1, []storage.Write{{Item: 1, Value: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("StageWrites on closed db: %v", err)
	}
	if err := d.RecordAbort(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("RecordAbort on closed db: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestQuickRecoveryPreservesCommitted(t *testing.T) {
	// Property: after any sequence of committed write sets followed by a
	// crash, recovery rebuilds exactly the committed values (SyncOnCommit).
	f := func(ops []struct {
		Item  uint8
		Value int64
	}) bool {
		d, err := Open(Config{Items: 32, Policy: SyncOnCommit})
		if err != nil {
			return false
		}
		defer d.Close()
		want := make(map[int]int64)
		for i, op := range ops {
			item := int(op.Item % 32)
			if _, err := applyWrites(d, uint64(i+1), storage.Write{Item: item, Value: op.Value}); err != nil {
				return false
			}
			want[item] = op.Value
		}
		if err := d.Flush(); err != nil {
			return false
		}
		d, err = crashAndReopen(d)
		if err != nil {
			return false
		}
		for item, value := range want {
			got, _, err := d.ReadVersioned(item)
			if err != nil || got != value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// crashAndReopen crashes d's in-memory log, which loses everything not
// forced, and opens a new database over what survived, as a restarting
// server does.
func crashAndReopen(d *DB) (*DB, error) {
	_ = d.Close()
	mem := d.log.(*wal.MemLog)
	mem.Crash()
	return Open(Config{Items: d.store.NumItems(), Policy: d.policy, Log: mem})
}

// applyWrites stages and installs one certified write set, as the replica's
// apply loop does (writes sorted by item), without forcing the log.
func applyWrites(d *DB, txnID uint64, writes ...storage.Write) (bool, error) {
	fresh, _, err := d.StageWrites(txnID, writes)
	if err != nil || !fresh {
		return false, err
	}
	return true, d.InstallWrites(writes)
}

// versionOf reads the committed certification version of an item through the
// atomic versioned-read API.
func versionOf(d *DB, item int) uint64 {
	_, ver, _ := d.ReadVersioned(item)
	return ver
}
