package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// pinnedIn's free-block check reads a block's slots by index: this fails to
// compile if the block size changes without it.
var _ = [1]struct{}{}[len(pinBlock{}.slots)-8]

// TestAcquireRechecksVisibleAfterPublishing is the acquire/prune
// interleaving: between the acquire's visible load and its slot publication,
// installs advance visible and prune the chain with no pin to honour.  The
// acquire must notice that visible moved and pin the new value, so the
// snapshot reads the newest value at or below its final sequence.
func TestAcquireRechecksVisibleAfterPublishing(t *testing.T) {
	s := NewStore(2)
	// Each write stores its own apply sequence, so the newest value at or
	// below sequence S is S.
	write := func() {
		if _, err := s.Write(0, int64(s.VisibleSeq()+1)); err != nil {
			t.Fatal(err)
		}
	}
	write()
	acquireHook = func() {
		acquireHook = nil
		write()
		write() // prunes the versions at sequences 1 and 2
	}
	t.Cleanup(func() { acquireHook = nil })

	snap := s.AcquireSnap()
	defer snap.Release()
	if got, _, err := snap.Read(0); err != nil || got != int64(snap.Seq()) {
		t.Fatalf("snapshot at seq %d read %d, %v; want %d", snap.Seq(), got, err, snap.Seq())
	}
	if snap.Seq() != s.VisibleSeq() {
		t.Fatalf("snapshot pinned seq %d, visible is %d", snap.Seq(), s.VisibleSeq())
	}
}

// TestEvictedReleaseKeepsReusedSlot: snapshot A is evicted by the pin-age
// cap and its slot is claimed by snapshot B.  A's late Release must not unpin
// B: B's version survives a write storm and a GC sweep.
func TestEvictedReleaseKeepsReusedSlot(t *testing.T) {
	s := NewStore(2)
	s.SetMaxPinAge(4)
	if _, err := s.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	a := s.AcquireSnap()
	for i := 0; i < 10; i++ {
		if _, err := s.Write(0, int64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.EvictedSnaps(); n != 1 {
		t.Fatalf("EvictedSnaps = %d, want 1", n)
	}
	s.SetMaxPinAge(0) // B must outlive the storm below
	b := s.AcquireSnap()
	defer b.Release()
	if a.slot != b.slot {
		t.Fatal("B did not reuse the evicted snapshot's slot")
	}
	want, _, err := b.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	a.Release()
	for i := 0; i < 100; i++ {
		if _, err := s.Write(0, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	s.GC()
	if got, _, err := b.Read(0); err != nil || got != want {
		t.Fatalf("B read %d, %v after A's release and a storm; want %d", got, err, want)
	}
	if n := s.LiveSnaps(); n != 1 {
		t.Fatalf("LiveSnaps = %d, want 1 (B)", n)
	}
}

// TestPinsBeyondOneBlock holds three blocks' worth of live snapshots, each at
// its own sequence, through a write storm: every one reads its own version,
// and releasing them all leaves no live snapshot.
func TestPinsBeyondOneBlock(t *testing.T) {
	s := NewStore(2)
	n := 3 * len(s.pins.slots)
	snaps := make([]*Snap, n)
	for i := range snaps {
		if _, err := s.Write(0, int64(i+1)); err != nil {
			t.Fatal(err)
		}
		snaps[i] = s.AcquireSnap()
	}
	if got := s.LiveSnaps(); got != n {
		t.Fatalf("LiveSnaps = %d, want %d", got, n)
	}
	for i := 0; i < 1000; i++ {
		if _, err := s.Write(0, int64(-i)); err != nil {
			t.Fatal(err)
		}
	}
	s.GC()
	for i, snap := range snaps {
		if got, _, err := snap.Read(0); err != nil || got != int64(i+1) {
			t.Fatalf("snapshot %d read %d, %v; want %d", i, got, err, i+1)
		}
	}
	for _, snap := range snaps {
		snap.Release()
	}
	if got := s.LiveSnaps(); got != 0 {
		t.Fatalf("LiveSnaps = %d after releasing all, want 0", got)
	}
	s.GC()
	if got := s.ChainLen(0); got != 1 {
		t.Fatalf("chain holds %d versions after release+GC, want 1", got)
	}
}

// TestConcurrentPinsReadTheirSequence races readers that acquire, read and
// release against a writer whose every install stores its own sequence in
// item 0, with and without the pin-age cap: a snapshot reads exactly its
// sequence or, once evicted, ErrSnapshotTooOld.
func TestConcurrentPinsReadTheirSequence(t *testing.T) {
	for _, age := range []uint64{0, 3} {
		s := NewStore(2)
		s.SetMaxPinAge(age)
		var stop atomic.Bool
		var pinned atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					snap := s.AcquireSnapVal()
					for k := 0; k < 3; k++ {
						v, _, err := snap.Read(0)
						if errors.Is(err, ErrSnapshotTooOld) {
							break
						}
						if err != nil || v != int64(snap.Seq()) {
							t.Errorf("age %d: snapshot at seq %d read %d, %v", age, snap.Seq(), v, err)
							stop.Store(true)
						}
					}
					snap.Release()
					pinned.Add(1)
				}
			}()
		}
		// The writer runs until the readers have pinned as often as it
		// wrote, so the two overlap however the goroutines are scheduled.
		for i := 0; (i < 3000 || pinned.Load() < 3000) && !stop.Load(); i++ {
			if _, err := s.Write(0, int64(s.VisibleSeq()+1)); err != nil {
				t.Fatal(err)
			}
		}
		stop.Store(true)
		wg.Wait()
		if n := s.LiveSnaps(); n != 0 {
			t.Fatalf("age %d: LiveSnaps = %d after every reader released, want 0", age, n)
		}
	}
}

// BenchmarkSnapAcquireRelease measures the query path's fixed cost: pin a
// snapshot, read one item, release, from parallel readers.
func BenchmarkSnapAcquireRelease(b *testing.B) {
	s := NewStore(1024)
	for i := 0; i < 1024; i++ {
		if _, err := s.Write(i, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			snap := s.AcquireSnapVal()
			if _, _, err := snap.Read(i & 1023); err != nil {
				b.Fatal(err)
			}
			snap.Release()
			i++
		}
	})
}
