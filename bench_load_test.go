package groupsafe

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file holds the shared load harness of the macro benchmarks: one
// driver that offers load either closed-loop (a fixed number of clients, each
// waiting for its own completion — throughput adapts to latency) or open-loop
// (Poisson arrivals at a fixed offered rate — latency absorbs the backlog,
// the honest model of independent clients who do not coordinate their
// submissions).  The abcast latency/throughput sweep (bench_test.go) drives
// its operations through it.

// loadMode selects how the harness offers load.  Exactly one field is set:
// producers > 0 runs that many closed-loop clients; arrival > 0 dispatches
// open-loop with exponentially distributed interarrival times of that mean
// (a Poisson process, seeded deterministically).
type loadMode struct {
	producers int
	arrival   time.Duration
}

func closedLoop(producers int) loadMode    { return loadMode{producers: producers} }
func openLoop(mean time.Duration) loadMode { return loadMode{arrival: mean} }

func (m loadMode) name() string {
	if m.producers > 0 {
		return "load-" + itoa(m.producers)
	}
	return "rate-" + itoa(int(time.Second/m.arrival)) + "ps"
}

// run drives exactly b.N invocations of op and returns their latencies.  op
// receives a driver index: the producer id under closed loop (stable per
// client, so ops can partition key ranges), the operation index under open
// loop.  The caller wraps the call in b.ResetTimer/b.StopTimer.
func (m loadMode) run(b *testing.B, op func(g int) error) []time.Duration {
	b.Helper()
	if m.producers > 0 {
		return runClosedLoop(b, m.producers, op)
	}
	return runOpenLoop(b, m.arrival, op)
}

func runClosedLoop(b *testing.B, producers int, op func(g int) error) []time.Duration {
	b.Helper()
	var next int64
	latencies := make([][]time.Duration, producers)
	errCh := make(chan error, producers)
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if atomic.AddInt64(&next, 1) > int64(b.N) {
					return
				}
				start := time.Now()
				if err := op(g); err != nil {
					errCh <- err
					return
				}
				latencies[g] = append(latencies[g], time.Since(start))
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		b.Fatal(err)
	default:
	}
	all := make([]time.Duration, 0, b.N)
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	return all
}

// runOpenLoop dispatches b.N operations on a Poisson arrival process: the
// dispatcher never waits for a completion before starting the next operation,
// so when the system falls behind the offered rate the backlog shows up as
// latency — the coordinated-omission-free measurement a closed loop cannot
// give.
func runOpenLoop(b *testing.B, mean time.Duration, op func(g int) error) []time.Duration {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	var mu sync.Mutex
	latencies := make([]time.Duration, 0, b.N)
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	next := time.Now()
	for i := 0; i < b.N; i++ {
		next = next.Add(time.Duration(rng.ExpFloat64() * float64(mean)))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			if err := op(i); err != nil {
				select {
				case errCh <- err:
				default:
				}
				return
			}
			d := time.Since(start)
			mu.Lock()
			latencies = append(latencies, d)
			mu.Unlock()
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		b.Fatal(err)
	default:
	}
	return latencies
}

// reportLatencyDistribution reports the p50/p99 of a latency sample in
// microseconds.
func reportLatencyDistribution(b *testing.B, all []time.Duration) {
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		idx := int(p * float64(len(all)-1))
		return float64(all[idx]) / float64(time.Microsecond)
	}
	b.ReportMetric(pct(0.50), "p50-µs")
	b.ReportMetric(pct(0.99), "p99-µs")
}
