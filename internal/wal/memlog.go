package wal

import (
	"sync"
	"time"
)

// MemLog is an in-memory stable-storage simulation.  Records become durable
// when Sync is called; Crash discards everything appended since the last
// Sync, modelling the loss of volatile buffers on a server crash.  A
// configurable SyncDelay models the latency of forcing the log to disk
// (the paper's setting: a disk write takes 4–12 ms, far more than the 0.07 ms
// network message).
type MemLog struct {
	mu sync.Mutex
	// segs holds the records in fixed-size segments (every one but the last
	// is full), so a log of any length appends without re-copying itself.
	segs      [][]Record
	n         int // number of records
	synced    int // number of durable records
	nextLSN   LSN
	closed    bool
	syncDelay time.Duration

	syncs uint64
}

// memSegment is the number of records per segment.
const memSegment = 4096

// at returns record i.
func (l *MemLog) at(i int) *Record { return &l.segs[i/memSegment][i%memSegment] }

// NewMemLog creates an empty in-memory log with no artificial sync latency.
func NewMemLog() *MemLog { return &MemLog{nextLSN: 1} }

// NewMemLogWithDelay creates an in-memory log whose Sync blocks for d,
// emulating the cost of a disk force.
func NewMemLogWithDelay(d time.Duration) *MemLog {
	return &MemLog{nextLSN: 1, syncDelay: d}
}

// Append implements Log.
func (l *MemLog) Append(r Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	r.LSN = l.nextLSN
	l.nextLSN++
	// Copy the data slice so later caller mutations cannot corrupt the log.
	if r.Data != nil {
		data := make([]byte, len(r.Data))
		copy(data, r.Data)
		r.Data = data
	}
	if l.n == len(l.segs)*memSegment {
		l.segs = append(l.segs, make([]Record, 0, memSegment))
	}
	last := len(l.segs) - 1
	l.segs[last] = append(l.segs[last], r)
	l.n++
	return r.LSN, nil
}

// Sync implements Log: all appended records become durable.
func (l *MemLog) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	delay := l.syncDelay
	l.synced = l.n
	l.syncs++
	l.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

// Replay implements Log: it iterates over durable (synced) records only.
func (l *MemLog) Replay(fn func(Record) error) error {
	// The durable prefix never changes (Crash and Append only touch what lies
	// past it), so the segments can be read outside the lock.
	l.mu.Lock()
	segs, left := append([][]Record(nil), l.segs...), l.synced
	l.mu.Unlock()
	for _, seg := range segs {
		for _, r := range seg[:min(left, len(seg))] {
			if err := fn(r); err != nil {
				return err
			}
		}
		left -= min(left, len(seg))
	}
	return nil
}

// LastLSN implements Log.
func (l *MemLog) LastLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Close implements Log.
func (l *MemLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// Crash simulates a server crash: every record appended after the last Sync
// is lost.  The log can keep being used afterwards (recovery).
func (l *MemLog) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.segs = l.segs[:(l.synced+memSegment-1)/memSegment]
	if tail := l.synced % memSegment; tail != 0 {
		l.segs[len(l.segs)-1] = l.segs[len(l.segs)-1][:tail]
	}
	l.n = l.synced
	l.nextLSN = 1
	if l.n > 0 {
		l.nextLSN = l.at(l.n-1).LSN + 1
	}
	l.closed = false
}

// Len returns the total number of records currently in the log (durable and
// volatile).
func (l *MemLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// DurableLen returns the number of durable records.
func (l *MemLog) DurableLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// DurableLSN returns the LSN of the last durable (synced) record, zero when
// nothing is durable yet.  It is what a crash at this instant would preserve.
func (l *MemLog) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.synced == 0 {
		return 0
	}
	return l.at(l.synced - 1).LSN
}

// Syncs returns the number of Sync calls, used by the group-commit tests.
func (l *MemLog) Syncs() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// SetSyncDelay changes the simulated disk-force latency.
func (l *MemLog) SetSyncDelay(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.syncDelay = d
}
