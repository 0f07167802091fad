package storage

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestStoreReadWrite(t *testing.T) {
	s := NewStore(10)
	if s.NumItems() != 10 {
		t.Fatalf("NumItems = %d", s.NumItems())
	}
	v, ver, err := s.Read(3)
	if err != nil || v != 0 || ver != 0 {
		t.Fatalf("initial read = %d,%d,%v", v, ver, err)
	}
	newVer, err := s.Write(3, 42)
	if err != nil || newVer != 1 {
		t.Fatalf("write returned %d,%v", newVer, err)
	}
	v, ver, err = s.Read(3)
	if err != nil || v != 42 || ver != 1 {
		t.Fatalf("read after write = %d,%d,%v", v, ver, err)
	}
	if s.Version(3) != 1 || s.Version(99) != 0 {
		t.Fatal("Version accessor wrong")
	}
}

func TestStoreOutOfRange(t *testing.T) {
	s := NewStore(5)
	if _, _, err := s.Read(5); !errors.Is(err, ErrItemOutOfRange) {
		t.Fatalf("Read(5) error = %v", err)
	}
	if _, _, err := s.Read(-1); !errors.Is(err, ErrItemOutOfRange) {
		t.Fatalf("Read(-1) error = %v", err)
	}
	if _, err := s.Write(7, 1); !errors.Is(err, ErrItemOutOfRange) {
		t.Fatalf("Write(7) error = %v", err)
	}
	if err := s.ApplyWriteSet(WriteSet{0: 1, 9: 2}); !errors.Is(err, ErrItemOutOfRange) {
		t.Fatalf("ApplyWriteSet with bad item error = %v", err)
	}
	// A failed write-set application must not partially apply.
	if s.Version(0) != 0 {
		t.Fatal("failed ApplyWriteSet partially applied")
	}
}

func TestStoreMinimumSize(t *testing.T) {
	s := NewStore(0)
	if s.NumItems() != 1 {
		t.Fatalf("NumItems = %d, want clamp to 1", s.NumItems())
	}
}

func TestApplyWriteSet(t *testing.T) {
	s := NewStore(10)
	ws := WriteSet{1: 11, 2: 22, 3: 33}
	if err := s.ApplyWriteSet(ws); err != nil {
		t.Fatal(err)
	}
	for item, want := range ws {
		v, ver, _ := s.Read(item)
		if v != want || ver != 1 {
			t.Fatalf("item %d = %d (v%d), want %d (v1)", item, v, ver, want)
		}
	}
	if err := s.ApplyWriteSet(WriteSet{1: 100}); err != nil {
		t.Fatal(err)
	}
	if s.Version(1) != 2 {
		t.Fatalf("version after second write = %d, want 2", s.Version(1))
	}
}

func TestSnapshotRestoreEqual(t *testing.T) {
	a := NewStore(20)
	b := NewStore(20)
	if !a.Equal(b) || !a.Equal(a) {
		t.Fatal("fresh stores should be equal")
	}
	_ = a.ApplyWriteSet(WriteSet{5: 50, 7: 70})
	if a.Equal(b) {
		t.Fatal("diverged stores reported equal")
	}
	b.Restore(a.Snapshot())
	if !a.Equal(b) {
		t.Fatal("restore from snapshot should make stores equal")
	}
	// Snapshot must be a deep copy.
	snap := a.Snapshot()
	snap[5].Value = 999
	if v, _, _ := a.Read(5); v != 50 {
		t.Fatal("mutating a snapshot affected the store")
	}
	c := NewStore(5)
	if a.Equal(c) {
		t.Fatal("stores of different sizes reported equal")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(100)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				item := (w*31 + i) % 100
				if _, err := s.Write(item, int64(i)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, _, err := s.Read(item); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < 100; i++ {
		total += s.Version(i)
	}
	if total != 8*200 {
		t.Fatalf("total versions = %d, want %d (every write counted exactly once)", total, 8*200)
	}
}

func TestQuickVersionsMonotonic(t *testing.T) {
	// Property: versions never decrease, and each write bumps the version by
	// exactly one.
	f := func(writes []uint8) bool {
		s := NewStore(16)
		prev := make([]uint64, 16)
		for _, w := range writes {
			item := int(w) % 16
			ver, err := s.Write(item, int64(w))
			if err != nil {
				return false
			}
			if ver != prev[item]+1 {
				return false
			}
			prev[item] = ver
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeNewerTakesOnlyStrictlyNewer(t *testing.T) {
	s := NewStore(4)
	s.Write(0, 10) // version 1
	s.Write(0, 11) // version 2
	s.Write(1, 20) // version 1

	merged := s.MergeNewer([]Item{
		{Value: 99, Version: 1}, // stale: local is at version 2
		{Value: 21, Version: 2}, // newer: taken
		{Value: 30, Version: 3}, // local untouched: taken
		{},                      // zero item: skipped
	})
	if merged != 2 {
		t.Fatalf("merged = %d, want 2", merged)
	}
	for i, want := range []Item{{11, 2}, {21, 2}, {30, 3}, {0, 0}} {
		v, ver, _ := s.Read(i)
		if v != want.Value || ver != want.Version {
			t.Fatalf("item %d = (%d, v%d), want (%d, v%d)", i, v, ver, want.Value, want.Version)
		}
	}
	// Equal versions keep the local copy.
	if n := s.MergeNewer([]Item{{Value: 99, Version: 2}}); n != 0 {
		t.Fatalf("equal-version merge took %d items, want 0", n)
	}
}

// TestMergeNewerNeverRegressesConcurrentWrites is the regression test for the
// live state-transfer race: a replica applying transactions while a (possibly
// stale) peer snapshot merges in must never lose an already-installed newer
// write — the bug that Restore-based installs had (capture, merge, restore
// reverts anything installed in between).
func TestMergeNewerNeverRegressesConcurrentWrites(t *testing.T) {
	s := NewStore(8)
	const writes = 500
	done := make(chan [8]uint64)
	go func() {
		var vers [8]uint64
		for v := int64(1); v <= writes; v++ {
			for i := 0; i < 8; i++ {
				ver, _ := s.Write(i, v)
				vers[i] = ver
			}
		}
		done <- vers
	}()
	// Merge snapshots of our own current state (always stale or equal by the
	// time they land) as fast as possible, racing the writer.
	for {
		select {
		case vers := <-done:
			for i := 0; i < 8; i++ {
				v, ver, _ := s.Read(i)
				if ver < vers[i] || v != writes {
					t.Fatalf("item %d regressed to (%d, v%d), writer finished at (%d, v%d)",
						i, v, ver, int64(writes), vers[i])
				}
			}
			return
		default:
			s.MergeNewer(s.Snapshot())
		}
	}
}
