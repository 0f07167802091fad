package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindBegin: "begin", KindUpdate: "update", KindCommit: "commit",
		KindAbort: "abort", KindMessage: "message", KindAck: "ack",
		KindCheckpoint: "checkpoint", Kind(200): "kind(200)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func replayAll(t *testing.T, l Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(r Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestMemLogAppendSyncReplay(t *testing.T) {
	l := NewMemLog()
	lsn1, err := l.Append(Record{Kind: KindBegin, TxnID: 1})
	if err != nil || lsn1 != 1 {
		t.Fatalf("append = %d, %v", lsn1, err)
	}
	lsn2, _ := l.Append(Record{Kind: KindCommit, TxnID: 1})
	if lsn2 != 2 {
		t.Fatalf("lsn2 = %d", lsn2)
	}
	// Nothing durable before Sync.
	if got := replayAll(t, l); len(got) != 0 {
		t.Fatalf("replay before sync returned %d records", len(got))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != 2 || got[0].Kind != KindBegin || got[1].Kind != KindCommit {
		t.Fatalf("replay = %+v", got)
	}
	if l.LastLSN() != 2 || l.Len() != 2 || l.DurableLen() != 2 {
		t.Fatalf("counters wrong: last=%d len=%d durable=%d", l.LastLSN(), l.Len(), l.DurableLen())
	}
}

func TestMemLogCrashDropsUnsynced(t *testing.T) {
	l := NewMemLog()
	l.Append(Record{Kind: KindCommit, TxnID: 1})
	l.Sync()
	l.Append(Record{Kind: KindCommit, TxnID: 2})
	l.Append(Record{Kind: KindCommit, TxnID: 3})
	l.Crash()
	got := replayAll(t, l)
	if len(got) != 1 || got[0].TxnID != 1 {
		t.Fatalf("after crash, replay = %+v, want only txn 1", got)
	}
	// LSNs continue after the surviving prefix.
	lsn, _ := l.Append(Record{Kind: KindCommit, TxnID: 4})
	if lsn != 2 {
		t.Fatalf("post-crash LSN = %d, want 2", lsn)
	}
}

func TestMemLogCrashOnEmpty(t *testing.T) {
	l := NewMemLog()
	l.Append(Record{Kind: KindCommit, TxnID: 1})
	l.Crash()
	if l.Len() != 0 {
		t.Fatal("crash with no sync should lose everything")
	}
	lsn, _ := l.Append(Record{Kind: KindCommit, TxnID: 2})
	if lsn != 1 {
		t.Fatalf("LSN restarts at %d, want 1", lsn)
	}
}

func TestMemLogClosed(t *testing.T) {
	l := NewMemLog()
	l.Close()
	if _, err := l.Append(Record{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync on closed log: %v", err)
	}
}

func TestMemLogDataIsCopied(t *testing.T) {
	l := NewMemLog()
	data := []byte{1, 2, 3}
	l.Append(Record{Kind: KindMessage, Data: data})
	data[0] = 99
	l.Sync()
	got := replayAll(t, l)
	if got[0].Data[0] != 1 {
		t.Fatal("log did not copy record data")
	}
}

func TestMemLogSyncDelay(t *testing.T) {
	l := NewMemLogWithDelay(20 * time.Millisecond)
	l.Append(Record{Kind: KindCommit})
	start := time.Now()
	l.Sync()
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("sync returned after %v, want >= ~20ms", elapsed)
	}
	l.SetSyncDelay(0)
	start = time.Now()
	l.Sync()
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Fatalf("sync with zero delay took %v", elapsed)
	}
	if l.Syncs() != 2 {
		t.Fatalf("syncs = %d", l.Syncs())
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Path() != path {
		t.Fatalf("Path() = %q", l.Path())
	}
	records := []Record{
		{Kind: KindBegin, TxnID: 7},
		{Kind: KindUpdate, TxnID: 7, Item: 42, Value: -12345},
		{Kind: KindCommit, TxnID: 7, Data: []byte("payload")},
	}
	for _, r := range records {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != 3 {
		t.Fatalf("replay returned %d records", len(got))
	}
	if got[1].Item != 42 || got[1].Value != -12345 {
		t.Fatalf("negative value did not round-trip: %+v", got[1])
	}
	if string(got[2].Data) != "payload" {
		t.Fatalf("data did not round-trip: %q", got[2].Data)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify persistence plus LSN continuation.
	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got = replayAll(t, l2)
	if len(got) != 3 {
		t.Fatalf("replay after reopen returned %d records", len(got))
	}
	if l2.LastLSN() != 3 {
		t.Fatalf("LastLSN after reopen = %d, want 3", l2.LastLSN())
	}
	lsn, err := l2.Append(Record{Kind: KindAbort, TxnID: 8})
	if err != nil || lsn != 4 {
		t.Fatalf("append after reopen = %d, %v", lsn, err)
	}
}

func TestFileLogTornTailIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindCommit, TxnID: 1})
	l.Append(Record{Kind: KindCommit, TxnID: 2})
	l.Sync()
	l.Close()

	// Corrupt the file by appending garbage bytes (a torn record).
	f, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 2 {
		t.Fatalf("replay with torn tail returned %d records, want 2", len(got))
	}
	// Appending after the torn tail was truncated must still work.
	if _, err := l2.Append(Record{Kind: KindCommit, TxnID: 3}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l2); len(got) != 3 {
		t.Fatalf("replay after repair returned %d records, want 3", len(got))
	}
}

func TestFileLogClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append(Record{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync on closed log: %v", err)
	}
	if err := l.Replay(func(Record) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("replay on closed log: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestFileLogReplayError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "err.wal")
	l, _ := OpenFileLog(path)
	defer l.Close()
	l.Append(Record{Kind: KindCommit})
	l.Sync()
	sentinel := errors.New("stop")
	if err := l.Replay(func(Record) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("replay error not propagated: %v", err)
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(kind uint8, txn uint64, item, value int64, data []byte) bool {
		r := Record{LSN: 1, Kind: Kind(kind), TxnID: txn, Item: item, Value: value, Data: data}
		decoded, err := decodeRecord(encodeRecord(r))
		if err != nil {
			return false
		}
		if decoded.Kind != r.Kind || decoded.TxnID != r.TxnID || decoded.Item != r.Item || decoded.Value != r.Value {
			return false
		}
		if len(decoded.Data) != len(r.Data) {
			return false
		}
		for i := range r.Data {
			if decoded.Data[i] != r.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	if _, err := decodeRecord([]byte{1, 2, 3}); err == nil {
		t.Fatal("short record should not decode")
	}
	r := encodeRecord(Record{Kind: KindCommit, Data: []byte("abc")})
	if _, err := decodeRecord(r[:len(r)-1]); err == nil {
		t.Fatal("truncated data should not decode")
	}
}

func TestGroupCommitterBatchesSyncs(t *testing.T) {
	l := NewMemLogWithDelay(5 * time.Millisecond)
	g := NewGroupCommitter(l)
	const n = 16
	lsns := make([]LSN, n)
	for i := 0; i < n; i++ {
		lsn, err := l.Append(Record{Kind: KindCommit, TxnID: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(lsn LSN) {
			defer wg.Done()
			if err := g.WaitDurable(lsn); err != nil {
				t.Errorf("WaitDurable: %v", err)
			}
		}(lsns[i])
	}
	wg.Wait()
	if l.DurableLen() != n {
		t.Fatalf("durable = %d, want %d", l.DurableLen(), n)
	}
	if syncs := l.Syncs(); syncs > n/2 {
		t.Fatalf("group commit used %d syncs for %d waiters, expected batching", syncs, n)
	}
	if g.SyncedLSN() < lsns[n-1] {
		t.Fatalf("SyncedLSN = %d, want >= %d", g.SyncedLSN(), lsns[n-1])
	}
}

func TestGroupCommitterAlreadyDurable(t *testing.T) {
	l := NewMemLog()
	g := NewGroupCommitter(l)
	lsn, _ := l.Append(Record{Kind: KindCommit})
	if err := g.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	before := l.Syncs()
	if err := g.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if l.Syncs() != before {
		t.Fatal("WaitDurable on already-durable LSN should not sync again")
	}
}

func TestGroupCommitterError(t *testing.T) {
	l := NewMemLog()
	g := NewGroupCommitter(l)
	lsn, _ := l.Append(Record{Kind: KindCommit})
	l.Close()
	if err := g.WaitDurable(lsn); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
	// The error is sticky for later waiters.
	if err := g.WaitDurable(lsn + 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected sticky error, got %v", err)
	}
}

// openAppend opens a file for appending raw bytes (test helper for torn-tail
// simulation).
func openAppend(path string) (f interface {
	Write([]byte) (int, error)
	Close() error
}, err error) {
	return osOpenAppend(path)
}

func TestLogInterfaceCompliance(t *testing.T) {
	var _ Log = NewMemLog()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("iface-%d.wal", time.Now().UnixNano()))
	fl, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	var _ Log = fl
}

// TestMemLogSegmentBoundaries drives the segmented storage across its
// boundaries: a sync point inside a segment, exactly on a boundary and in the
// last partial segment, each followed by a crash, must leave exactly the
// durable prefix behind and continue the LSNs after it.
func TestMemLogSegmentBoundaries(t *testing.T) {
	for _, durable := range []int{memSegment - 1, memSegment, 2*memSegment + 5} {
		l := NewMemLog()
		for i := 1; i <= durable; i++ {
			l.Append(Record{Kind: KindCommit, TxnID: uint64(i)})
		}
		l.Sync()
		for i := 0; i < memSegment+3; i++ {
			l.Append(Record{Kind: KindAbort})
		}
		if got := l.Len(); got != durable+memSegment+3 {
			t.Fatalf("durable %d: Len = %d before the crash", durable, got)
		}
		l.Crash()
		if l.Len() != durable || l.DurableLen() != durable || l.DurableLSN() != LSN(durable) {
			t.Fatalf("durable %d: after the crash Len %d, DurableLen %d, DurableLSN %d", durable, l.Len(), l.DurableLen(), l.DurableLSN())
		}
		if lsn, _ := l.Append(Record{Kind: KindCommit, TxnID: uint64(durable + 1)}); lsn != LSN(durable+1) {
			t.Fatalf("durable %d: post-crash LSN = %d", durable, lsn)
		}
		l.Sync()
		got := replayAll(t, l)
		if len(got) != durable+1 {
			t.Fatalf("durable %d: replayed %d records", durable, len(got))
		}
		for i, r := range got {
			if r.LSN != LSN(i+1) || r.TxnID != uint64(i+1) || r.Kind != KindCommit {
				t.Fatalf("durable %d: record %d replayed as %+v", durable, i, r)
			}
		}
	}
}
