// Package apply implements a deterministic conflict-graph parallel apply
// scheduler.  It is not on the replica path — internal/core installs each
// batch serially in delivery order — and is kept only for bench/'s
// apply.sched_ns_per_txn probe, until a benchmark PR retires that probe.
//
// The replication protocols totally order transactions with atomic
// broadcast, but total *order* does not require total *serial execution*:
// two certified write sets that touch disjoint items can be installed
// concurrently with an outcome indistinguishable from installing them in
// delivery order.  The scheduler exploits exactly that freedom:
//
//   - certification stays serial and cheap (it happens before scheduling, in
//     strict sequence order, against a version overlay);
//   - the committed write sets of one drained batch are partitioned by their
//     item-conflict graph into waves: a task's wave is one more than the
//     deepest wave among the earlier tasks it conflicts with, so tasks in
//     the same wave are pairwise disjoint and a conflict chain spreads over
//     consecutive waves in delivery order;
//   - each wave installs concurrently on a bounded worker pool (workers
//     claim tasks from the wave with a single atomic fetch-add each — no
//     per-task channel traffic), with small waves run inline because
//     spawning workers would cost more than the installs.
//
// Because every item's updates are installed in delivery (= wave) order and
// version counters bump once per write regardless of interleaving, the final
// store state is byte-identical to a serial apply — the property the
// determinism tests assert for every worker count.  A fully conflicting
// batch degenerates into singleton waves, i.e. the plain serial loop with no
// scheduling overhead at all.
//
// A Scheduler is owned by a single apply goroutine and reuses its internal
// wave buffers across batches, so steady-state scheduling allocates nothing
// beyond the worker goroutines of large waves.
package apply

import (
	"runtime"
	"sync"
	"sync/atomic"

	"groupsafe/internal/storage"
)

// Scheduler installs batches of write sets concurrently while preserving
// per-item delivery order.  It is NOT safe for concurrent use: one scheduler
// belongs to one apply loop.
type Scheduler struct {
	workers int

	// Reusable per-batch wave state (see buildWaves).
	lastWriter map[int]int32 // item -> index of its latest writer in the batch
	level      []int32       // task -> wave number
	waveSize   []int32       // wave -> task count (then prefix offsets)
	waveCursor []int32       // counting-sort fill cursors
	waveTasks  []int32       // tasks bucketed by wave, delivery order inside
}

// New creates a scheduler with the given worker-pool bound.  workers <= 1
// yields a serial scheduler that installs write sets strictly in delivery
// order (the zero-overhead baseline).
func New(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	return &Scheduler{
		workers:    workers,
		lastWriter: make(map[int]int32),
	}
}

// Run installs the tasks of one batch, where tasks[i] is the write set of the
// i-th committed transaction in delivery order (each duplicate-free), by
// invoking install for every task index exactly once.  Disjoint tasks may be
// installed concurrently by as many goroutines as the worker bound (clamped
// to GOMAXPROCS); tasks sharing an item are invoked in index order, never
// concurrently.  Run returns after every
// install returned, with the first install error (the remaining tasks are
// still installed so the batch's bookkeeping stays uniform).
func (s *Scheduler) Run(tasks [][]storage.Write, install func(i int) error) error {
	n := len(tasks)
	if n == 0 {
		return nil
	}
	// More workers than schedulable threads is pure overhead: on a
	// single-core runner the pool degrades to the serial loop, so a high
	// worker bound never regresses small machines.
	effWorkers := min(s.workers, runtime.GOMAXPROCS(0))
	if effWorkers <= 1 || n == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := install(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	waves := s.buildWaves(tasks)

	// A wave smaller than this runs inline: spawning workers costs more than
	// a handful of installs.
	minParallel := 2 * effWorkers

	var (
		errMu    sync.Mutex
		firstErr error
		noteErr  = func(err error) {
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}
	)
	for w := 0; w < waves; w++ {
		wave := s.waveTasks[s.waveSize[w]:s.waveSize[w+1]]
		if len(wave) < minParallel {
			for _, i := range wave {
				noteErr(install(int(i)))
			}
			continue
		}
		workers := effWorkers
		if workers > len(wave) {
			workers = len(wave)
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := cursor.Add(1) - 1
					if k >= int64(len(wave)) {
						return
					}
					noteErr(install(int(wave[k])))
				}
			}()
		}
		wg.Wait()
	}
	return firstErr
}

// buildWaves assigns every task its conflict depth (wave) and buckets the
// task indices by wave with a stable counting sort, returning the number of
// waves.  All buffers are reused across batches.
func (s *Scheduler) buildWaves(tasks [][]storage.Write) int {
	n := len(tasks)
	if cap(s.level) < n {
		s.level = make([]int32, n)
		s.waveTasks = make([]int32, n)
	}
	s.level = s.level[:n]
	s.waveTasks = s.waveTasks[:n]
	clear(s.lastWriter)

	waves := int32(0)
	for i, writes := range tasks {
		lvl := int32(0)
		for _, w := range writes {
			if j, ok := s.lastWriter[w.Item]; ok && int(j) != i && s.level[j] >= lvl {
				lvl = s.level[j] + 1
			}
			s.lastWriter[w.Item] = int32(i)
		}
		s.level[i] = lvl
		if lvl+1 > waves {
			waves = lvl + 1
		}
	}

	// Counting sort by wave; waveSize becomes the prefix-offset table, so
	// wave w occupies waveTasks[waveSize[w]:waveSize[w+1]].
	if cap(s.waveSize) < int(waves)+1 {
		s.waveSize = make([]int32, waves+1)
	}
	s.waveSize = s.waveSize[:waves+1]
	for i := range s.waveSize {
		s.waveSize[i] = 0
	}
	for _, lvl := range s.level {
		if lvl+1 < int32(len(s.waveSize)) {
			s.waveSize[lvl+1]++
		}
	}
	for w := 1; w < len(s.waveSize); w++ {
		s.waveSize[w] += s.waveSize[w-1]
	}
	if cap(s.waveCursor) < len(s.waveSize) {
		s.waveCursor = make([]int32, len(s.waveSize))
	}
	s.waveCursor = s.waveCursor[:len(s.waveSize)]
	copy(s.waveCursor, s.waveSize)
	for i := 0; i < n; i++ {
		lvl := s.level[i]
		s.waveTasks[s.waveCursor[lvl]] = int32(i)
		s.waveCursor[lvl]++
	}
	return int(waves)
}
