package core

import (
	"sync"
	"sync/atomic"
)

// This file is the freshness gate of the read scale-out layer: the replica's
// applied-sequence watermark and the ordered wakeup structure for
// freshness-floored sessions.
//
// The gate replaces the old close-and-remake broadcast channel, which woke
// EVERY floored waiter on every applied sequence (a thundering herd under
// many concurrent sessions).  Waiters now sit in a min-heap ordered by their
// floor; each delivery pops only the waiters it satisfies, so a waiter is
// woken exactly once, ever — O(1) amortised wakeups per delivery regardless
// of how many sessions are parked.

// freshWaiter is one parked freshness-floored session.
type freshWaiter struct {
	floor uint64
	ch    chan struct{}
}

// freshGate tracks the replica's applied broadcast sequence and wakes parked
// waiters in floor order.
type freshGate struct {
	// applied is the highest applied sequence; reads are lock-free (the
	// query hot path samples it for every freshness token).
	applied atomic.Uint64

	// mu guards the waiter heap (min-heap by floor) and the wake counter.
	mu    sync.Mutex
	heap  []freshWaiter
	wakes uint64
}

// appliedSeq returns the current applied sequence, lock-free.
func (g *freshGate) appliedSeq() uint64 { return g.applied.Load() }

// advance raises the applied sequence (monotonic; stale values are ignored)
// and wakes exactly the parked waiters whose floor is now satisfied.
func (g *freshGate) advance(seq uint64) {
	for {
		cur := g.applied.Load()
		if seq <= cur {
			return
		}
		if g.applied.CompareAndSwap(cur, seq) {
			break
		}
	}
	g.mu.Lock()
	for len(g.heap) > 0 && g.heap[0].floor <= seq {
		close(g.heap[0].ch)
		g.popLocked()
		g.wakes++
	}
	g.mu.Unlock()
}

// subscribe registers a waiter for the given floor.  When the floor is
// already satisfied it returns (nil, true) and the caller proceeds without
// blocking; otherwise the returned channel is closed by the advance() that
// first satisfies the floor.  A waiter abandoned by its caller (context
// expiry, crash) stays in the heap until some advance satisfies it — closing
// a channel nobody reads is free, and a crashed replica's gate dies with it.
func (g *freshGate) subscribe(floor uint64) (chan struct{}, bool) {
	if g.applied.Load() >= floor {
		return nil, true
	}
	g.mu.Lock()
	// Re-check under mu: an advance that stored a satisfying sequence before
	// we acquired mu would otherwise never see this waiter.
	if g.applied.Load() >= floor {
		g.mu.Unlock()
		return nil, true
	}
	ch := make(chan struct{})
	g.pushLocked(freshWaiter{floor: floor, ch: ch})
	g.mu.Unlock()
	return ch, false
}

// wakeCount returns the cumulative number of waiter wakeups (observability
// for the O(1)-wakeups-per-delivery benchmark).
func (g *freshGate) wakeCount() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.wakes
}

// waiting returns the number of parked waiters.
func (g *freshGate) waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.heap)
}

// pushLocked inserts a waiter into the min-heap (mu held).
func (g *freshGate) pushLocked(w freshWaiter) {
	g.heap = append(g.heap, w)
	i := len(g.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if g.heap[parent].floor <= g.heap[i].floor {
			break
		}
		g.heap[parent], g.heap[i] = g.heap[i], g.heap[parent]
		i = parent
	}
}

// popLocked removes the minimum-floor waiter (mu held, heap non-empty).
func (g *freshGate) popLocked() {
	n := len(g.heap) - 1
	g.heap[0] = g.heap[n]
	g.heap[n] = freshWaiter{}
	g.heap = g.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && g.heap[l].floor < g.heap[min].floor {
			min = l
		}
		if r < n && g.heap[r].floor < g.heap[min].floor {
			min = r
		}
		if min == i {
			return
		}
		g.heap[i], g.heap[min] = g.heap[min], g.heap[i]
		i = min
	}
}
