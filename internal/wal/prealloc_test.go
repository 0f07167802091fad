package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// kill abandons l the way a killed process does: records still in the
// user-space buffer are gone, the file keeps whatever reached it, its
// preallocated tail included, and nothing is flushed, truncated or forced.
func kill(l *FileLog) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.f.Close()
}

// reopened opens path again and checks what every reopening must give: the
// first want records in LSN order, the next append directly behind them with
// the next LSN, and a file within one preallocation step of the bytes logged.
func reopened(t *testing.T, path string, want int) *FileLog {
	t.Helper()
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	got := replayAll(t, l)
	if len(got) != want {
		t.Fatalf("reopened log replays %d records, want %d", len(got), want)
	}
	for i, r := range got {
		if r.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	end := l.end
	lsn, err := l.Append(Record{Kind: KindCommit, TxnID: 99})
	if err != nil || lsn != LSN(want+1) {
		t.Fatalf("append after reopen = LSN %d, %v; want %d", lsn, err, want+1)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Read the new record back at the offset where the valid prefix ended.
	hdr := make([]byte, fileLogHeaderSize)
	if _, err := l.f.ReadAt(hdr, end); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr))
	if _, err := l.f.ReadAt(payload, end+fileLogHeaderSize); err != nil {
		t.Fatal(err)
	}
	if rec, err := decodeRecord(payload); err != nil || rec.LSN != lsn || rec.TxnID != 99 {
		t.Fatalf("record at the end of the valid prefix (offset %d) = %+v, %v", end, rec, err)
	}
	checkSize(t, l)
	return l
}

// checkSize checks the file is no shorter than the bytes written to it and
// less than one preallocation step (plus the record that crossed it) longer.
func checkSize(t *testing.T, l *FileLog) {
	t.Helper()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(l.path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() < l.end || info.Size() > l.end+preallocStep {
		t.Fatalf("file is %d bytes for %d logged: not within one %d-byte step", info.Size(), l.end, preallocStep)
	}
}

func TestFileLogReopenAfterKillWithPreallocatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "killed.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l.Append(Record{Kind: KindUpdate, TxnID: uint64(i), Data: []byte("forced")})
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindCommit, TxnID: 3}) // buffered only: dies with the process
	kill(l)
	reopened(t, path, 3)
}

func TestFileLogTornRecordInsidePreallocatedSpace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindCommit, TxnID: 1})
	l.Append(Record{Kind: KindCommit, TxnID: 2})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	end := l.end
	kill(l)

	// A record whose write was cut short: the header and half the body made
	// it into the preallocated space, zeros follow.
	whole := appendRecord(make([]byte, fileLogHeaderSize), Record{LSN: 3, Kind: KindMessage, TxnID: 3, Data: bytes.Repeat([]byte{0xab}, 200)})
	binary.LittleEndian.PutUint32(whole[0:4], uint32(len(whole)-fileLogHeaderSize))
	binary.LittleEndian.PutUint32(whole[4:8], crc32.ChecksumIEEE(whole[fileLogHeaderSize:]))
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(whole[:len(whole)/2], end); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := reopened(t, path, 2)
	// Nothing of the torn record may resurface behind the new append.
	if got := replayAll(t, l2); len(got) != 3 || got[2].TxnID != 99 {
		t.Fatalf("after the repair the log replays %+v", got)
	}
	kill(l2)
	reopened(t, path, 3)
}

func TestFileLogCrossesPreallocationSteps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "steps.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1000)
	const records = 4*preallocStep/1000 + 7
	for i := 0; i < records; i++ {
		if _, err := l.Append(Record{Kind: KindMessage, TxnID: uint64(i), Data: data}); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			checkSize(t, l)
		}
	}
	// One record larger than a whole step is still covered.
	if _, err := l.Append(Record{Kind: KindMessage, Data: make([]byte, preallocStep+5)}); err != nil {
		t.Fatal(err)
	}
	checkSize(t, l)
	if l.end < 4*preallocStep {
		t.Fatalf("only %d bytes logged: the test no longer crosses several steps", l.end)
	}
	kill(l)
	reopened(t, path, records+1)
}

// TestFileLogAppendsProceedDuringForce holds the force lock the way a force in
// flight does: appends and replays must go through, a second force and Close
// must wait for it.
func TestFileLogAppendsProceedDuringForce(t *testing.T) {
	l, err := OpenFileLog(filepath.Join(t.TempDir(), "force.wal"))
	if err != nil {
		t.Fatal(err)
	}
	l.syncMu.Lock()
	if _, err := l.Append(Record{Kind: KindCommit, TxnID: 1}); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 1 || l.LastLSN() != 1 {
		t.Fatalf("during a force the log replays %d records", len(got))
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case <-closed:
		t.Fatal("Close did not wait for the force in flight")
	case <-time.After(20 * time.Millisecond):
	}
	l.syncMu.Unlock()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("force after Close: %v", err)
	}
}

// TestGroupCommitterAppendsRacingForce: with appends no longer held up by a
// force, the committer's target — the last LSN before the force started —
// must stay a lower bound of what that force covered.  Writers append and
// wait; a kill then drops everything that never left the user-space buffer,
// and every record a writer was told is durable must still be in the file.
func TestGroupCommitterAppendsRacingForce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "race.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupCommitter(l)
	const writers, rounds = 8, 40
	durable := make([]LSN, writers)
	stop := make(chan struct{})
	var noise, wg sync.WaitGroup
	noise.Add(1)
	go func() { // appends that nobody waits for, racing every force
		defer noise.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := l.Append(Record{Kind: KindUpdate}); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lsn, err := l.Append(Record{Kind: KindCommit, TxnID: uint64(w)})
				if err == nil {
					err = g.WaitDurable(lsn)
				}
				if err != nil {
					t.Error(err)
					return
				}
				durable[w] = lsn
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	noise.Wait()
	if synced := g.SyncedLSN(); synced > l.LastLSN() {
		t.Fatalf("SyncedLSN %d is past the last appended LSN %d", synced, l.LastLSN())
	}
	kill(l)

	l2, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for w, lsn := range durable {
		if lsn > l2.LastLSN() {
			t.Fatalf("writer %d was told LSN %d is durable; the file ends at LSN %d", w, lsn, l2.LastLSN())
		}
	}
}
