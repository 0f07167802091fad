package db

import (
	"sync"
	"testing"

	"groupsafe/internal/storage"
)

func TestReadTxnNoDirtyReads(t *testing.T) {
	d, err := Open(Config{Items: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	seed, err := d.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Write(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// An uncommitted writer's buffered update must be invisible.
	w, err := d.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(1, 99); err != nil {
		t.Fatal(err)
	}
	rt, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rt.Read(1); v != 10 {
		t.Fatalf("dirty read: %d", v)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// Repeatable: the same snapshot still sees the pre-commit value.
	if v, _ := rt.Read(1); v != 10 {
		t.Fatalf("snapshot read not repeatable after concurrent commit: %d", v)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh snapshot sees the committed update.
	rt2, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if v, _ := rt2.Read(1); v != 99 {
		t.Fatalf("fresh snapshot = %d, want 99", v)
	}
	if got := d.Stats().ReadTxns; got != 2 {
		t.Fatalf("ReadTxns counter = %d, want 2", got)
	}
}

// TestSnapshotNeverSeesBufferedWrite: a Txn's writes stay in its buffer
// until Commit, so no snapshot taken meanwhile sees them, and neither does
// the committed state; an aborted Txn leaves no trace.
func TestSnapshotNeverSeesBufferedWrite(t *testing.T) {
	d, err := Open(Config{Items: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w, err := d.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(0, 7); err != nil {
		t.Fatal(err)
	}
	rt, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if v, _ := rt.Read(0); v != 0 {
		t.Fatalf("snapshot read = %d, want pre-write 0", v)
	}
	if v, ver, _ := d.ReadVersioned(0); v != 0 || ver != 0 {
		t.Fatalf("committed state = (%d, v%d) while the write is buffered", v, ver)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	rt2, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if v, _ := rt2.Read(0); v != 0 {
		t.Fatalf("aborted write visible: %d", v)
	}
}

func TestReadTxnWriteStormNeverAborts(t *testing.T) {
	d, err := Open(Config{Items: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for wk := 0; wk < 4; wk++ {
		writers.Add(1)
		go func(wk int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				txn, err := d.Begin(0)
				if err != nil {
					return
				}
				_ = txn.Write((wk*7+i)%32, int64(i))
				_ = txn.Write((wk*7+i+1)%32, int64(i))
				_ = txn.Commit()
			}
		}(wk)
	}

	var readers sync.WaitGroup
	for rk := 0; rk < 4; rk++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; n < 100; n++ {
				rt, err := d.BeginRead()
				if err != nil {
					t.Errorf("BeginRead: %v", err)
					return
				}
				for i := 0; i < 32; i++ {
					v1, ver1, err1 := rt.ReadVersioned(i)
					v2, ver2, err2 := rt.ReadVersioned(i)
					if err1 != nil || err2 != nil || v1 != v2 || ver1 != ver2 {
						t.Errorf("non-repeatable read under storm: item %d", i)
						rt.Close()
						return
					}
				}
				rt.Close()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	if d.Store().LiveSnaps() != 0 {
		t.Fatal("read transactions leaked snapshots")
	}
}

func TestReadTxnGCKeepsLiveSnapshotAcrossCrashRecover(t *testing.T) {
	d, err := Open(Config{Items: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := applyWrites(d, 1, storage.Write{Item: 0, Value: 11}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err = crashAndReopen(d)
	if err != nil {
		t.Fatal(err)
	}

	// A snapshot taken after recovery pins the recovered version through an
	// overwrite storm and explicit GC sweeps.
	rt, err := d.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 100; i++ {
		if _, err := applyWrites(d, uint64(i), storage.Write{Item: 0, Value: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.Store().GC()
	if v, _ := rt.Read(0); v != 11 {
		t.Fatalf("GC pruned a version visible to a live post-recovery snapshot: %d", v)
	}
	rt.Close()
	d.Store().GC()
	if n := d.Store().ChainLen(0); n != 1 {
		t.Fatalf("chain length after release = %d, want 1", n)
	}
	if v, _, _ := d.ReadVersioned(0); v != 100 {
		t.Fatalf("latest = %d, want 100", v)
	}
}
