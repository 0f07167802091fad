package db

import (
	"sync"
	"testing"
	"time"

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

func TestReadTxnNeverBlocksBehindExclusiveLock(t *testing.T) {
	d, err := Open(Config{Items: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w, err := d.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	// The writer holds the exclusive 2PL lock on item 0 for the whole test.
	if err := w.Write(0, 7); err != nil {
		t.Fatal(err)
	}

	done := make(chan int64, 1)
	go func() {
		rt, err := d.BeginRead()
		if err != nil {
			done <- -1
			return
		}
		defer rt.Close()
		v, _ := rt.Read(0)
		done <- v
	}()
	select {
	case v := <-done:
		if v != 0 {
			t.Fatalf("read = %d, want pre-write 0", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read-only transaction blocked behind an exclusive lock")
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
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
	if _, err := d.ApplyWriteSet(1, storage.WriteSet{0: 11}); err != nil {
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
		if _, err := d.ApplyWriteSet(uint64(i), storage.WriteSet{0: int64(i)}); err != nil {
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
