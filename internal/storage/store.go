// Package storage implements the versioned item store used by the local
// database component.  The store is a fixed-size array of items (the paper's
// database has 10'000 items, Table 4).  Each item keeps a short multi-version
// chain: every committed write appends a new version stamped with the
// store-wide apply sequence of its transaction (monotonic per replica) and
// with the item's certification version counter (first-updater wins).  The
// newest version is the committed state seen by the 2PL write path; read-only
// snapshots (Snap) read the newest version at or below their snapshot
// sequence without taking any item locks and never abort.  A watermark-driven
// garbage collector prunes chain prefixes no live snapshot can see.
//
// The store is striped: items are partitioned over a fixed set of RWMutexes
// so that write sets touching disjoint stripes install concurrently.  The
// parallel apply scheduler guarantees that conflicting write sets are never
// installed at the same time; the stripes only have to serialise installs
// against concurrent readers and against installs that happen to share a
// stripe.
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrItemOutOfRange is returned when an item index does not exist.
var ErrItemOutOfRange = fmt.Errorf("storage: item out of range")

// Item is the newest committed value and version of a single database item
// (the representation used by state-transfer checkpoints).
type Item struct {
	Value   int64
	Version uint64
}

// Write is one item update of a write set, in the slice representation used
// by the apply hot path (sorted by Item, no map allocation or iteration-order
// nondeterminism).
type Write struct {
	Item  int
	Value int64
}

// version is one entry of an item's multi-version chain.
type version struct {
	// seq is the store-wide apply sequence of the transaction that installed
	// this version; a snapshot at sequence S sees the newest version with
	// seq <= S.
	seq uint64
	// ver is the item's certification version counter after this write.
	ver   uint64
	value int64
}

// chain is the version history of one item, oldest first.  An empty chain is
// the implicit initial version {value 0, ver 0, seq 0}.
type chain struct {
	versions []version
}

// numStripes is the number of lock stripes (power of two).
const numStripes = 64

// pinBlock is one cache line of reader slots, each holding a live snapshot's
// sequence + 1 (0: free), claimed by CAS and freed by its owner.  When every
// slot is taken another block is linked, so live snapshots are unbounded.
type pinBlock struct {
	slots [8]atomic.Uint64 // pinnedIn reads the eight by index
	next  atomic.Pointer[pinBlock]
}

// acquireHook (nil outside tests) runs before an acquire publishes its slot.
var acquireHook func()

// Store is a concurrency-safe, multi-version, in-memory item store.
type Store struct {
	stripes [numStripes]sync.RWMutex
	items   []chain

	// seqMu guards the install-sequence bookkeeping.  Install sequences are
	// reserved per transaction (beginInstall) and may complete out of order
	// when disjoint write sets install in parallel; visible only advances
	// over a gap-free prefix, so a snapshot at sequence S observes every
	// transaction with sequence <= S in full — writes of a half-installed
	// transaction are never visible to snapshots.
	seqMu   sync.Mutex
	nextSeq uint64
	done    map[uint64]struct{}
	// visible is the watermark of the gap-free installed prefix; updates
	// happen under seqMu, reads are lock-free.
	visible atomic.Uint64

	// pins is the first block of reader slots: every live snapshot publishes
	// its sequence in one slot, and the pruner scans them (see
	// AcquireSnapVal and pruneChainLocked).  No reader takes a lock.
	pins pinBlock

	// pruned counts versions removed by the garbage collector.
	pruned atomic.Uint64
}

// NewStore creates a store with n items, all initialised to value 0,
// version 0.
func NewStore(n int) *Store {
	if n < 1 {
		n = 1
	}
	return &Store{
		items: make([]chain, n),
		done:  make(map[uint64]struct{}),
	}
}

func (s *Store) stripe(i int) *sync.RWMutex {
	return &s.stripes[i&(numStripes-1)]
}

// lockAll acquires every stripe (whole-store operations: snapshot, restore,
// reset).
func (s *Store) lockAll() {
	for i := range s.stripes {
		s.stripes[i].Lock()
	}
}

func (s *Store) unlockAll() {
	for i := range s.stripes {
		s.stripes[i].Unlock()
	}
}

// NumItems returns the number of items in the store.
func (s *Store) NumItems() int {
	mu := &s.stripes[0]
	mu.RLock()
	n := len(s.items)
	mu.RUnlock()
	return n
}

// --- install sequencing ---

// beginInstall reserves the next apply sequence for one transaction's writes.
func (s *Store) beginInstall() uint64 {
	s.seqMu.Lock()
	s.nextSeq++
	seq := s.nextSeq
	s.seqMu.Unlock()
	return seq
}

// endInstall marks a reserved sequence fully installed and advances the
// visible prefix over completed sequences.
func (s *Store) endInstall(seq uint64) {
	s.seqMu.Lock()
	s.done[seq] = struct{}{}
	vis := s.visible.Load()
	for {
		if _, ok := s.done[vis+1]; !ok {
			break
		}
		delete(s.done, vis+1)
		vis++
	}
	s.visible.Store(vis)
	s.seqMu.Unlock()
}

// VisibleSeq returns the newest snapshot sequence: every transaction with an
// apply sequence at or below it is fully installed.
func (s *Store) VisibleSeq() uint64 { return s.visible.Load() }

// claimPin publishes seq in a free reader slot and returns the slot, linking
// a new block when every slot is taken.
func (s *Store) claimPin(seq uint64) *atomic.Uint64 {
	for b := &s.pins; ; b = b.next.Load() {
		for i := range b.slots {
			if b.slots[i].Load() == 0 && b.slots[i].CompareAndSwap(0, seq+1) {
				return &b.slots[i]
			}
		}
		if b.next.Load() == nil {
			b.next.CompareAndSwap(nil, new(pinBlock))
		}
	}
}

// pinnedIn reports whether a reader slot pins a sequence in [lo, hi).  A
// block with every slot free, the install path's common case, is skipped
// after eight unrolled loads: a third of what the loop costs.
func (s *Store) pinnedIn(lo, hi uint64) bool {
	for b := &s.pins; b != nil; b = b.next.Load() {
		if sl := &b.slots; sl[0].Load()|sl[1].Load()|sl[2].Load()|sl[3].Load()|
			sl[4].Load()|sl[5].Load()|sl[6].Load()|sl[7].Load() == 0 {
			continue
		}
		for i := range b.slots {
			if v := b.slots[i].Load(); v > lo && v <= hi {
				return true
			}
		}
	}
	return false
}

// --- reads ---

// Read returns the newest committed value and version of item i.  The bounds
// check happens under the stripe lock: Restore (which holds every stripe) may
// replace the items slice, so the slice header must not be read lock-free.
func (s *Store) Read(i int) (value int64, ver uint64, err error) {
	if i < 0 {
		return 0, 0, fmt.Errorf("%w: %d", ErrItemOutOfRange, i)
	}
	mu := s.stripe(i)
	mu.RLock()
	if i >= len(s.items) {
		mu.RUnlock()
		return 0, 0, fmt.Errorf("%w: %d", ErrItemOutOfRange, i)
	}
	if vs := s.items[i].versions; len(vs) > 0 {
		v := vs[len(vs)-1]
		mu.RUnlock()
		return v.value, v.ver, nil
	}
	mu.RUnlock()
	return 0, 0, nil
}

// ReadAt returns the value and version of item i as visible to a snapshot at
// the given apply sequence: the newest version with seq <= at.  Versions the
// snapshot cannot see are protected from GC only for sequences obtained from
// a live Snap handle.
func (s *Store) ReadAt(i int, at uint64) (value int64, ver uint64, err error) {
	if i < 0 {
		return 0, 0, fmt.Errorf("%w: %d", ErrItemOutOfRange, i)
	}
	mu := s.stripe(i)
	mu.RLock()
	if i >= len(s.items) {
		mu.RUnlock()
		return 0, 0, fmt.Errorf("%w: %d", ErrItemOutOfRange, i)
	}
	vs := s.items[i].versions
	for k := len(vs) - 1; k >= 0; k-- {
		if vs[k].seq <= at {
			v := vs[k]
			mu.RUnlock()
			return v.value, v.ver, nil
		}
	}
	mu.RUnlock()
	// No version at or below the snapshot: the item still has its implicit
	// initial state at that sequence.
	return 0, 0, nil
}

// Version returns the newest committed version of item i (0 if out of range).
func (s *Store) Version(i int) uint64 {
	_, ver, err := s.Read(i)
	if err != nil {
		return 0
	}
	return ver
}

// ChainLen returns the current length of item i's version chain (0 if out of
// range); it is a GC observability hook for tests and stats.
func (s *Store) ChainLen(i int) int {
	if i < 0 {
		return 0
	}
	mu := s.stripe(i)
	mu.RLock()
	n := 0
	if i < len(s.items) {
		n = len(s.items[i].versions)
	}
	mu.RUnlock()
	return n
}

// PrunedVersions returns the cumulative number of versions removed by GC.
func (s *Store) PrunedVersions() uint64 { return s.pruned.Load() }

// --- writes ---

// appendLocked appends a new version to item i's chain (stripe already held),
// bumping the certification version counter, and opportunistically prunes the
// versions no live or future snapshot can reach.
func (s *Store) appendLocked(i int, value int64, seq uint64) {
	c := &s.items[i]
	var ver uint64
	if n := len(c.versions); n > 0 {
		ver = c.versions[n-1].ver
	}
	c.versions = append(c.versions, version{seq: seq, ver: ver + 1, value: value})
	s.pruneChainLocked(c)
}

// pruneChainLocked removes every version of the chain that no reader can
// reach (the item's stripe is held).  A version is reachable iff it is
//
//   - at or above the newest version with seq <= visible (what the latest
//     state and every future snapshot read), or
//   - the newest version with seq <= p for some live snapshot sequence p.
//
// Safety of the lock-free reads: visible is monotonic and is loaded BEFORE
// the reader slots are scanned.  An acquire publishes its slot and then loads
// visible again, keeping the sequence only if visible has not moved.  If the
// scan missed a live snapshot's slot (or saw an older value in it), the scan
// came before the slot was written, so our visible load came before the
// acquire's final visible load: our bound is at most the snapshot's sequence
// and its version lies in the kept suffix.  A stale slot only keeps more.
func (s *Store) pruneChainLocked(c *chain) {
	vs := c.versions
	if len(vs) <= 1 {
		return
	}
	vis := s.visible.Load()
	// kbase is the newest version every future snapshot can reach; the whole
	// suffix [kbase..] is kept.
	kbase := -1
	for k := len(vs) - 1; k >= 0; k-- {
		if vs[k].seq <= vis {
			kbase = k
			break
		}
	}
	if kbase <= 0 {
		return
	}
	// Version k (< kbase) survives iff some pin p makes it the newest
	// version <= p, i.e. vs[k].seq <= p < vs[k+1].seq.
	w := 0
	for k := 0; k < kbase; k++ {
		if s.pinnedIn(vs[k].seq, vs[k+1].seq) {
			vs[w] = vs[k]
			w++
		}
	}
	if w == kbase {
		return
	}
	n := copy(vs[w:], vs[kbase:])
	c.versions = vs[:w+n]
	s.pruned.Add(uint64(kbase - w))
}

// GC sweeps every item chain once, returning the number of versions pruned by
// the sweep.  Installs already prune the chains they touch; the sweep exists
// for idle stores and for tests.
func (s *Store) GC() uint64 {
	before := s.pruned.Load()
	n := s.NumItems()
	for i := 0; i < n; i++ {
		mu := s.stripe(i)
		mu.Lock()
		if i < len(s.items) {
			s.pruneChainLocked(&s.items[i])
		}
		mu.Unlock()
	}
	return s.pruned.Load() - before
}

// Write installs a new value for item i as a single-item transaction and
// bumps its version, returning the new version.  Like ApplyWriteSet,
// concurrent writes to the SAME item must be ordered by the caller.
func (s *Store) Write(i int, value int64) (uint64, error) {
	if i < 0 {
		return 0, fmt.Errorf("%w: %d", ErrItemOutOfRange, i)
	}
	seq := s.beginInstall()
	mu := s.stripe(i)
	mu.Lock()
	if i >= len(s.items) {
		mu.Unlock()
		s.endInstall(seq)
		return 0, fmt.Errorf("%w: %d", ErrItemOutOfRange, i)
	}
	s.appendLocked(i, value, seq)
	v := s.items[i].versions[len(s.items[i].versions)-1].ver
	mu.Unlock()
	s.endInstall(seq)
	return v, nil
}

// WriteSet is the set of item updates installed by one transaction.
type WriteSet map[int]int64

// ApplyWriteSet installs all updates of ws as one transaction, appending a
// new version of each written item under a single apply sequence.  Write sets
// touching a common item must be ordered by the CALLER (the database layer's
// 2PL locks or the apply scheduler's conflict graph provide this): version
// chains append in call order, and a same-item install racing between another
// transaction's sequence reservation and its append would interleave the
// chains' sequence order.  The stripe locks only serialise chain mutation
// against concurrent readers and against installs of disjoint transactions
// sharing a stripe.  The write set is validated before anything is installed,
// so a write set with an out-of-range item is rejected without partial
// application.
func (s *Store) ApplyWriteSet(ws WriteSet) error {
	n := s.NumItems()
	for i := range ws {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: %d", ErrItemOutOfRange, i)
		}
	}
	seq := s.beginInstall()
	for i, v := range ws {
		s.writeOne(i, v, seq)
	}
	s.endInstall(seq)
	return nil
}

// ApplyWrites installs one transaction's write set in the slice
// representation, appending a new version of each written item under a single
// apply sequence.  It is the install path used by the parallel apply
// scheduler; writes must not contain duplicate items, and conflicting write
// sets must be ordered by the caller (see ApplyWriteSet).
// Validation-before-install matches ApplyWriteSet.
func (s *Store) ApplyWrites(writes []Write) error {
	n := s.NumItems()
	for _, w := range writes {
		if w.Item < 0 || w.Item >= n {
			return fmt.Errorf("%w: %d", ErrItemOutOfRange, w.Item)
		}
	}
	seq := s.beginInstall()
	for _, w := range writes {
		s.writeOne(w.Item, w.Value, seq)
	}
	s.endInstall(seq)
	return nil
}

// writeOne appends a single version under its stripe lock, bounds-checking
// inside the lock so a concurrent Restore cannot race the slice header.  A
// racing size-shrinking Restore makes the write a no-op; the write set was
// validated against the pre-restore size.
func (s *Store) writeOne(i int, v int64, seq uint64) {
	mu := s.stripe(i)
	mu.Lock()
	if i >= 0 && i < len(s.items) {
		s.appendLocked(i, v, seq)
	}
	mu.Unlock()
}

// --- snapshots (read-only transactions) ---

// Snap is a live read-only snapshot of the store: it reads the newest version
// of each item at or below its sequence, takes no item locks, and never
// aborts.  While a Snap is live the GC keeps every version it can see;
// Release it when done.  A Snap does not survive whole-store Restore/Reset
// (the crash model invalidates outstanding snapshots).
type Snap struct {
	s        *Store
	seq      uint64
	slot     *atomic.Uint64
	released bool
}

// AcquireSnap pins and returns a snapshot at the current visible sequence
// (see AcquireSnapVal).
func (s *Store) AcquireSnap() *Snap {
	snap := s.AcquireSnapVal()
	return &snap
}

// AcquireSnapVal is AcquireSnap returning the handle by value, for callers
// that embed it (the database's read-transaction hot path allocates once for
// the transaction instead of twice).  It takes no lock: it loads visible,
// claims a reader slot, then loads visible again.  If visible moved, a
// pruner may have scanned the slots before the claim with a bound above the
// pinned sequence, so the pin moves to the new value and is checked again.
// Only Release frees a slot, so the move is a plain store.
func (s *Store) AcquireSnapVal() Snap {
	seq := s.visible.Load()
	if acquireHook != nil {
		acquireHook()
	}
	slot := s.claimPin(seq)
	for {
		now := s.visible.Load()
		if now == seq {
			return Snap{s: s, seq: seq, slot: slot}
		}
		slot.Store(now + 1)
		seq = now
	}
}

// Seq returns the snapshot's apply sequence.
func (p *Snap) Seq() uint64 { return p.seq }

// Read returns the value and version of item i as of the snapshot.
func (p *Snap) Read(i int) (int64, uint64, error) { return p.s.ReadAt(i, p.seq) }

// Release frees the snapshot's slot, allowing GC to prune the versions only
// it could see.  Release is idempotent; like the reads, it must not be
// called concurrently with other methods of the Snap.
func (p *Snap) Release() {
	if p.released {
		return
	}
	p.released = true
	p.slot.Store(0)
}

// LiveSnaps returns the number of live (unreleased) snapshots.
func (s *Store) LiveSnaps() int {
	n := 0
	for b := &s.pins; b != nil; b = b.next.Load() {
		for i := range b.slots {
			if b.slots[i].Load() != 0 {
				n++
			}
		}
	}
	return n
}

// --- whole-store operations (state transfer, crash model) ---

// Snapshot returns a deep copy of the newest committed state, used for state
// transfer when a recovering replica rejoins the group (checkpoint-based
// recovery in the dynamic crash no-recovery model).
func (s *Store) Snapshot() []Item {
	s.lockAll()
	defer s.unlockAll()
	cp := make([]Item, len(s.items))
	for i := range s.items {
		if vs := s.items[i].versions; len(vs) > 0 {
			v := vs[len(vs)-1]
			cp[i] = Item{Value: v.value, Version: v.ver}
		}
	}
	return cp
}

// Restore replaces the store contents with the given snapshot: every item's
// chain collapses to the single restored version, stamped with a fresh apply
// sequence.  Outstanding Snaps are invalidated (their reads see the implicit
// zero state below the restore point); the crash/state-transfer model never
// keeps read-only transactions alive across a restore.
func (s *Store) Restore(snapshot []Item) {
	seq := s.beginInstall()
	s.lockAll()
	if len(snapshot) != len(s.items) {
		s.items = make([]chain, len(snapshot))
	}
	for i := range s.items {
		it := snapshot[i]
		if it == (Item{}) {
			s.items[i].versions = nil
			continue
		}
		s.items[i].versions = append(s.items[i].versions[:0],
			version{seq: seq, ver: it.Version, value: it.Value})
	}
	s.unlockAll()
	s.endInstall(seq)
}

// MergeNewer merges a state-transfer snapshot into a live store: every item
// whose snapshot version is strictly newer than the store's newest version
// gets the snapshot copy appended as a fresh version (one new apply sequence
// covers the whole merge); all other items are untouched.  Unlike Restore it
// neither truncates version chains nor disturbs live snapshots, so it is safe
// against concurrent installs and readers — per item the higher version wins
// regardless of which write lands last, so a concurrently installed newer
// write can never be regressed by a stale snapshot.  Returns the number of
// items taken from the snapshot.
func (s *Store) MergeNewer(snapshot []Item) int {
	seq := s.beginInstall()
	s.lockAll()
	n := len(snapshot)
	if len(s.items) < n {
		n = len(s.items)
	}
	merged := 0
	for i := 0; i < n; i++ {
		it := snapshot[i]
		if it == (Item{}) {
			continue
		}
		vs := s.items[i].versions
		if len(vs) > 0 && vs[len(vs)-1].ver >= it.Version {
			continue
		}
		s.items[i].versions = append(vs, version{seq: seq, ver: it.Version, value: it.Value})
		merged++
	}
	s.unlockAll()
	s.endInstall(seq)
	return merged
}

// Equal reports whether two stores hold identical newest values and versions.
// It is used by the consistency checks of the integration tests (one-copy
// equivalence across replicas).
func (s *Store) Equal(other *Store) bool {
	if s == other {
		return true
	}
	a := s.Snapshot()
	b := other.Snapshot()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
