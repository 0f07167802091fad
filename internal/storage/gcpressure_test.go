package storage

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestGCBoundedUnderPinnedReaderPressure is the GC-under-pressure contract: a
// slow reader pinning an old snapshot while a write storm hammers one item
// must NOT make the version chain grow with the storm.  Opportunistic pruning
// on install has to keep exactly the reachable set — the pinned version plus
// the visible suffix — so the retained chain stays O(pins), not O(writes).
func TestGCBoundedUnderPinnedReaderPressure(t *testing.T) {
	s := NewStore(4)
	for i := 0; i < 10; i++ {
		if _, err := s.Write(0, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.AcquireSnap()
	wantPinned, _, err := snap.Read(0)
	if err != nil {
		t.Fatal(err)
	}

	// One pin can make at most one old version reachable (the newest version
	// at or below the pin), plus the newest version at or below visible and
	// the in-flight append: the chain must never exceed 3 regardless of how
	// long the storm runs.
	const bound = 3
	for i := 0; i < 5000; i++ {
		if _, err := s.Write(0, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
		if n := s.ChainLen(0); n > bound {
			t.Fatalf("after %d storm writes the chain holds %d versions (bound %d): GC is not keeping up with a pinned reader", i+1, n, bound)
		}
		if i%500 == 0 {
			if v, _, err := snap.Read(0); err != nil || v != wantPinned {
				t.Fatalf("pinned snapshot drifted during the storm: value %d err %v, want %d", v, err, wantPinned)
			}
		}
	}

	// Releasing the pin and sweeping collapses the chain to the single
	// visible version.
	snap.Release()
	s.GC()
	if n := s.ChainLen(0); n != 1 {
		t.Fatalf("chain holds %d versions after release+GC, want 1", n)
	}
	if n := s.LiveSnaps(); n != 0 {
		t.Fatalf("%d live snapshots after release, want 0", n)
	}
}

// TestGCBoundScalesWithPins: with k snapshots pinned at distinct sequences
// the retained chain is bounded by k plus the visible suffix, and releasing
// pins releases their versions on the next prune.
func TestGCBoundScalesWithPins(t *testing.T) {
	s := NewStore(2)
	var snaps []*Snap
	const pins = 8
	for p := 0; p < pins; p++ {
		if _, err := s.Write(1, int64(p)); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s.AcquireSnap())
	}
	for i := 0; i < 2000; i++ {
		if _, err := s.Write(1, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.ChainLen(1); n > pins+2 {
		t.Fatalf("chain holds %d versions with %d pins (bound %d)", n, pins, pins+2)
	}
	// Each snapshot still reads its own version.
	for p, snap := range snaps {
		if v, _, err := snap.Read(1); err != nil || v != int64(p) {
			t.Fatalf("pin %d reads %d (err %v), want %d", p, v, err, p)
		}
	}
	for _, snap := range snaps[:pins/2] {
		snap.Release()
	}
	s.GC()
	if n := s.ChainLen(1); n > pins/2+2 {
		t.Fatalf("chain holds %d versions after releasing half the pins (bound %d)", n, pins/2+2)
	}
	for _, snap := range snaps[pins/2:] {
		snap.Release()
	}
	s.GC()
	if n := s.ChainLen(1); n != 1 {
		t.Fatalf("chain holds %d versions after releasing every pin, want 1", n)
	}
}

// TestGCBoundedUnderConcurrentReaders runs the storm with live concurrency:
// a writer hammering one item while readers continuously acquire, read and
// release snapshots.  Checks the bound loosely (concurrent acquisitions can
// legitimately pin a handful of recent sequences) and, more importantly,
// gives the race detector the interleavings that matter.
func TestGCBoundedUnderConcurrentReaders(t *testing.T) {
	s := NewStore(4)
	const readers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap := s.AcquireSnap()
				a, _, err1 := snap.Read(0)
				b, _, err2 := snap.Read(0)
				snap.Release()
				if err1 != nil || err2 != nil || a != b {
					t.Errorf("snapshot read not repeatable: %d/%v vs %d/%v", a, err1, b, err2)
					return
				}
			}
		}()
	}
	const writes = 3000
	for i := 0; i < writes; i++ {
		if _, err := s.Write(0, int64(i)); err != nil {
			t.Fatal(err)
		}
		// Every concurrent reader can pin at most one sequence at a time.
		if n := s.ChainLen(0); n > readers+2 {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("chain holds %d versions under %d transient readers (bound %d)", n, readers, readers+2)
		}
	}
	stop.Store(true)
	wg.Wait()
	s.GC()
	if n := s.ChainLen(0); n != 1 {
		t.Fatalf("chain holds %d versions after the storm, want 1", n)
	}
}
