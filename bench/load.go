package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

const (
	// opDeadline bounds one operation; an operation that outlives it is a
	// failure, not a long latency.  It is also how long a phase waits, after
	// its own deadline, for what is in flight or queued: anything outstanding
	// after that is cancelled and counted as failed, so a stalled system
	// cannot stretch a phase by more than this.
	opDeadline = 5 * time.Second
	// window is the granularity of the throughput series behind tps_drift.
	window = 500 * time.Millisecond
	// sleepSlack: time.Sleep overshoots by about a millisecond on small
	// hosts, so the open-loop dispatcher sleeps only for waits above
	// 2*sleepSlack, stops sleepSlack early, and polls the clock for the rest.
	sleepSlack = 2 * time.Millisecond
)

// opFunc runs one generated operation on behalf of worker w.  It returns an
// error when the operation failed, aborted or returned a wrong answer.
type opFunc func(ctx context.Context, w int) error

// sample is one completed operation: when it ended (offset from the phase
// start) and how long the client waited for it.
type sample struct {
	end time.Duration
	lat time.Duration
}

// phase is what one closed or open phase observed.
type phase struct {
	length    time.Duration
	samples   []sample        // successful operations that ended inside the phase
	attempted int             // operations issued (or due, for the open loop)
	failed    int             // errors, aborts, wrong answers, timeouts, never started
	late      []time.Duration // open loop: hand-off time minus due time
	firstErr  error
}

// latencies returns the sorted latencies of the phase's samples.
func (p *phase) latencies() []time.Duration {
	ls := make([]time.Duration, len(p.samples))
	for i, s := range p.samples {
		ls[i] = s.lat
	}
	sortDurations(ls)
	return ls
}

// tps is the phase's completion rate: operations that ended inside the phase
// over its length.
func (p *phase) tps() float64 { return float64(len(p.samples)) / p.length.Seconds() }

// rates returns the per-window completion rates in operations per second.
func (p *phase) rates() []float64 {
	n := int(p.length / window)
	counts := make([]float64, n)
	for _, s := range p.samples {
		if i := int(s.end / window); i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= window.Seconds()
	}
	return counts
}

// drift is the throughput of the last third of the phase over that of the
// first third: below 1 when the system slows down as its state grows.
func (p *phase) drift() float64 {
	r := p.rates()
	third := len(r) / 3
	if third == 0 {
		return 1
	}
	first, last := median(r[:third]), median(r[len(r)-third:])
	if first == 0 {
		return 0
	}
	return last / first
}

type workerLog struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
}

func (l *workerLog) record(start time.Time, begun, ended time.Time, length time.Duration, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	if end := ended.Sub(start); end <= length {
		l.samples = append(l.samples, sample{end: end, lat: ended.Sub(begun)})
	}
}

func merge(p *phase, logs []workerLog) {
	for i := range logs {
		p.samples = append(p.samples, logs[i].samples...)
		p.attempted += logs[i].attempted
		p.failed += logs[i].failed
		if p.firstErr == nil {
			p.firstErr = logs[i].firstErr
		}
	}
}

// settle collects garbage before a phase starts.  The in-process replicas keep
// every log record and applied id, so the heap grows by gigabytes over a run
// and a collection takes seconds; without a common starting point the phase
// that happens to contain one more collection reads a tenth slower.
func settle() { runtime.GC() }

// graceContext returns a context that is cancelled opDeadline after the
// phase's deadline, which is what ends operations that never return.
func graceContext(parent context.Context, start time.Time, length time.Duration) (context.Context, context.CancelFunc) {
	return context.WithDeadline(parent, start.Add(length+opDeadline))
}

// runClosed drives workers clients, each sending its next operation only
// after the previous one completed, for length.  Latency is timed from the
// send.
func runClosed(ctx context.Context, workers int, length time.Duration, op opFunc) *phase {
	settle()
	start := time.Now()
	ctx, cancel := graceContext(ctx, start, length)
	defer cancel()
	logs := make([]workerLog, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				begun := time.Now()
				if begun.Sub(start) >= length {
					return
				}
				opCtx, opCancel := context.WithTimeout(ctx, opDeadline)
				err := op(opCtx, w)
				opCancel()
				logs[w].record(start, begun, time.Now(), length, err)
			}
		}(w)
	}
	wg.Wait()
	p := &phase{length: length}
	merge(p, logs)
	return p
}

// runOpen offers operations on a Poisson schedule of the given rate for
// length, whether or not earlier ones have completed.  One dispatcher paces
// the schedule by polling the clock and hands each due operation to a fixed
// pool of workers; latency is timed from the moment the operation was due,
// so the wait a stall imposes on later operations is counted.  The backlog
// left at the deadline gets opDeadline to drain; operations still queued
// after it were never started and are failures.
func runOpen(ctx context.Context, workers int, length time.Duration, rate float64, gaps *rand.Rand, op opFunc) *phase {
	settle()
	start := time.Now()
	ctx, cancel := graceContext(ctx, start, length)
	defer cancel()
	// The queue holds the backlog of due operations; sized for a full second
	// of arrivals so the dispatcher never blocks on a slow system.
	due := make(chan time.Time, int(rate)+1)
	logs := make([]workerLog, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for at := range due {
				if ctx.Err() != nil { // still queued when the grace ran out
					logs[w].record(start, at, at, length, ctx.Err())
					continue
				}
				opCtx, opCancel := context.WithTimeout(ctx, opDeadline)
				err := op(opCtx, w)
				opCancel()
				logs[w].record(start, at, time.Now(), length, err)
			}
		}(w)
	}

	p := &phase{length: length}
	mean := float64(time.Second) / rate
	next := start
	for {
		next = next.Add(time.Duration(gaps.ExpFloat64() * mean))
		if next.Sub(start) >= length {
			break
		}
		if wait := time.Until(next); wait > 2*sleepSlack {
			time.Sleep(wait - sleepSlack)
		}
		for time.Now().Before(next) {
			runtime.Gosched()
		}
		select {
		case due <- next:
			p.late = append(p.late, time.Since(next))
		default:
			// A backlog of more than a second of arrivals: the operation is
			// refused rather than queued.
			p.attempted++
			p.failed++
		}
	}
	close(due)
	wg.Wait()
	merge(p, logs)
	sortDurations(p.late)
	return p
}
