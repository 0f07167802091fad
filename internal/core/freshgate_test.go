package core

import (
	"fmt"
	"testing"
)

// drained reports whether the waiter channel has been closed.
func drained(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestFreshGateWakesOnlySatisfiedWaiters: one delivery wakes exactly the
// waiters whose floor it satisfies, leaving the rest parked.
func TestFreshGateWakesOnlySatisfiedWaiters(t *testing.T) {
	var g freshGate
	chs := make(map[int]chan struct{})
	for f := 1; f <= 10; f++ {
		ch, ready := g.subscribe(uint64(f))
		if ready {
			t.Fatalf("floor %d reported satisfied on an empty gate", f)
		}
		chs[f] = ch
	}
	g.advance(5)
	for f := 1; f <= 5; f++ {
		if !drained(chs[f]) {
			t.Fatalf("floor %d not woken by advance(5)", f)
		}
	}
	for f := 6; f <= 10; f++ {
		if drained(chs[f]) {
			t.Fatalf("floor %d woken by advance(5)", f)
		}
	}
	if w, parked := g.wakeCount(), g.waiting(); w != 5 || parked != 5 {
		t.Fatalf("wakeups %d parked %d after advance(5), want 5 and 5", w, parked)
	}
	// A floor already at or below the watermark never parks.
	if _, ready := g.subscribe(5); !ready {
		t.Fatal("satisfied floor parked instead of proceeding")
	}
	g.advance(10)
	for f := 6; f <= 10; f++ {
		if !drained(chs[f]) {
			t.Fatalf("floor %d not woken by advance(10)", f)
		}
	}
	if w, parked := g.wakeCount(), g.waiting(); w != 10 || parked != 0 {
		t.Fatalf("wakeups %d parked %d after advance(10), want 10 and 0", w, parked)
	}
}

// TestFreshGateAdvanceIsMonotonic: a stale advance neither regresses the
// watermark nor wakes anyone.
func TestFreshGateAdvanceIsMonotonic(t *testing.T) {
	var g freshGate
	g.advance(7)
	ch, ready := g.subscribe(9)
	if ready {
		t.Fatal("floor 9 satisfied at watermark 7")
	}
	g.advance(3)
	if got := g.appliedSeq(); got != 7 {
		t.Fatalf("watermark regressed to %d", got)
	}
	if drained(ch) {
		t.Fatal("stale advance woke a parked waiter")
	}
	g.advance(9)
	if !drained(ch) {
		t.Fatal("floor 9 not woken by advance(9)")
	}
}

// TestFreshGateOneWakeupPerWaiterEver is the thundering-herd contract: with N
// parked sessions and N single-sequence deliveries, the total wakeup count is
// exactly N — each waiter is woken once, ever, by the first delivery that
// satisfies it.  The old close-and-remake broadcast channel woke every parked
// waiter on every delivery (O(N²) here).
func TestFreshGateOneWakeupPerWaiterEver(t *testing.T) {
	var g freshGate
	const n = 1000
	for f := 1; f <= n; f++ {
		if _, ready := g.subscribe(uint64(f)); ready {
			t.Fatalf("floor %d satisfied on an empty gate", f)
		}
	}
	for seq := 1; seq <= n; seq++ {
		g.advance(uint64(seq))
	}
	if w := g.wakeCount(); w != n {
		t.Fatalf("%d wakeups for %d deliveries over %d waiters, want exactly %d (one per waiter)", w, n, n, n)
	}
}

// BenchmarkFreshGateAdvance measures one delivery's cost with many parked
// floored sessions none of which it satisfies: the gate only peeks the heap
// minimum, so the per-delivery cost must stay flat as the parked count grows
// (the old broadcast channel made it O(parked) closes per delivery).
func BenchmarkFreshGateAdvance(b *testing.B) {
	for _, parked := range []int{0, 100, 10_000} {
		b.Run(fmt.Sprintf("parked=%d", parked), func(b *testing.B) {
			var g freshGate
			const far = uint64(1) << 60
			for i := 0; i < parked; i++ {
				g.subscribe(far + uint64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.advance(uint64(i + 1))
			}
			if w := g.wakeCount(); w != 0 {
				b.Fatalf("far-floored waiters woke %d times", w)
			}
		})
	}
}

// BenchmarkFreshGateWakeupsPerDelivery drives deliveries through a herd of
// sessions with floors spread uniformly over the delivery range and reports
// the measured wakeups-per-delivery ratio: amortised O(1) — every waiter
// wakes exactly once no matter how many are parked.
func BenchmarkFreshGateWakeupsPerDelivery(b *testing.B) {
	for _, sessions := range []int{100, 10_000} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			var g freshGate
			for i := 0; i < sessions; i++ {
				// Floors spread over [1, b.N] so every delivery satisfies
				// about sessions/b.N waiters.
				floor := uint64(i)*uint64(b.N)/uint64(sessions) + 1
				g.subscribe(floor)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.advance(uint64(i + 1))
			}
			b.StopTimer()
			b.ReportMetric(float64(g.wakeCount())/float64(b.N), "wakeups/delivery")
		})
	}
}
