package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// FileLog is a file-backed write-ahead log.  Each record is stored as:
//
//	uint32 length of the encoded record (little endian)
//	uint32 CRC-32 (IEEE) of the encoded record
//	[]byte encoded record
//
// A torn tail (partial record at the end of the valid prefix, e.g. after a
// crash in the middle of a write) is detected by the length/CRC check and
// ignored during replay.  So is the zero-filled tail, shorter than
// preallocStep, that preallocation leaves: with the space already there a
// force (fdatasync) need not journal a new file size with every record.
type FileLog struct {
	// syncMu serialises forces against each other and against Close; taken
	// before mu.  Appends take only mu and proceed while a force is in flight.
	syncMu sync.Mutex

	mu      sync.Mutex
	path    string
	f       *os.File
	w       *bufio.Writer
	nextLSN LSN
	end     int64 // offset one past the last appended record, buffered ones included
	alloc   int64 // the file is preallocated up to this offset
	closed  bool
	// encBuf is the reusable append-path encode buffer (guarded by mu):
	// header plus record are staged here so an Append performs no
	// per-record allocation.
	encBuf []byte
}

const (
	fileLogHeaderSize = 8
	// recordFixedSize is the encoded size of a record without its data.
	recordFixedSize = 41
	// preallocStep is how far ahead of the append point the file is extended:
	// rarely (once per ~1000 small records), yet never far ahead of the bytes
	// logged.  Forces cost the same at any step from 64 KiB up.
	preallocStep = 256 << 10
)

// OpenFileLog opens (or creates) the log at path and scans it to find the
// next LSN.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	// Determine the next LSN and the valid prefix length by scanning.
	validEnd, last, err := scan(f, info.Size(), func(Record) error { return nil })
	if err != nil {
		f.Close()
		return nil, err
	}
	// Cut off a torn record or the previous life's preallocated tail: new
	// appends land directly after the last valid record, nothing stale beyond.
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	w := bufio.NewWriter(io.NewOffsetWriter(f, validEnd))
	return &FileLog{path: path, f: f, w: w, nextLSN: last + 1, end: validEnd, alloc: validEnd}, nil
}

// Path returns the file path of the log.
func (l *FileLog) Path() string { return l.path }

func encodeRecord(r Record) []byte {
	return appendRecord(make([]byte, 0, recordFixedSize+len(r.Data)), r)
}

// appendRecord appends the binary encoding of r to buf and returns the
// extended slice; it is the allocation-free core of encodeRecord.
func appendRecord(buf []byte, r Record) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(r.LSN))
	buf = append(buf, tmp[:]...)
	buf = append(buf, byte(r.Kind))
	binary.LittleEndian.PutUint64(tmp[:], r.TxnID)
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], uint64(r.Item))
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], uint64(r.Value))
	buf = append(buf, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], uint64(len(r.Data)))
	buf = append(buf, tmp[:]...)
	buf = append(buf, r.Data...)
	return buf
}

func decodeRecord(b []byte) (Record, error) {
	if len(b) < recordFixedSize {
		return Record{}, fmt.Errorf("wal: record too short: %d bytes", len(b))
	}
	var r Record
	r.LSN = LSN(binary.LittleEndian.Uint64(b[0:8]))
	r.Kind = Kind(b[8])
	r.TxnID = binary.LittleEndian.Uint64(b[9:17])
	r.Item = int64(binary.LittleEndian.Uint64(b[17:25]))
	r.Value = int64(binary.LittleEndian.Uint64(b[25:33]))
	n := binary.LittleEndian.Uint64(b[33:41])
	if uint64(len(b)-41) != n {
		return Record{}, fmt.Errorf("wal: data length mismatch: header %d, actual %d", n, len(b)-41)
	}
	if n > 0 {
		r.Data = make([]byte, n)
		copy(r.Data, b[41:])
	}
	return r, nil
}

// Append implements Log.
func (l *FileLog) Append(r Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	r.LSN = l.nextLSN
	// Stage header + payload in the reusable buffer: zero per-record
	// allocations on the append path (the header is patched in after the
	// payload is encoded, when its length and checksum are known).
	var zeroHdr [fileLogHeaderSize]byte
	buf := append(l.encBuf[:0], zeroHdr[:]...)
	buf = appendRecord(buf, r)
	payload := buf[fileLogHeaderSize:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	l.encBuf = buf
	for l.end+int64(len(buf)) > l.alloc {
		if err := preallocate(l.f, l.alloc, preallocStep); err != nil {
			return 0, fmt.Errorf("wal: preallocate: %w", err)
		}
		l.alloc += preallocStep
	}
	if _, err := l.w.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: append record: %w", err)
	}
	l.end += int64(len(buf))
	l.nextLSN++
	return r.LSN, nil
}

// Sync implements Log: it flushes buffered records under mu and forces them
// to disk outside it, so every record appended before the call is durable on
// return and appends issued meanwhile are not held up by the force.
func (l *FileLog) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	err := l.w.Flush()
	l.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if err := force(l.f); err != nil {
		return fmt.Errorf("wal: force: %w", err)
	}
	return nil
}

// scan reads the first size bytes of f, calling fn for every valid record,
// and returns the byte offset of the end of the valid prefix and the last
// valid LSN.
func scan(f *os.File, size int64, fn func(Record) error) (int64, LSN, error) {
	r := bufio.NewReader(io.NewSectionReader(f, 0, size))
	var offset int64
	var last LSN
	for {
		var hdr [fileLogHeaderSize]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// EOF or a torn header: the valid prefix ends here.
			return offset, last, nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		checksum := binary.LittleEndian.Uint32(hdr[4:8])
		// A zeroed header (the preallocated tail) or a length past the file
		// (garbage) ends the valid prefix.
		if length < recordFixedSize || int64(length) > size-offset-fileLogHeaderSize {
			return offset, last, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return offset, last, nil
		}
		if crc32.ChecksumIEEE(payload) != checksum {
			return offset, last, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return offset, last, nil
		}
		if err := fn(rec); err != nil {
			return 0, 0, err
		}
		last = rec.LSN
		offset += int64(fileLogHeaderSize) + int64(length)
	}
}

// Replay implements Log.
func (l *FileLog) Replay(fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush before replay: %w", err)
	}
	_, _, err := scan(l.f, l.end, fn)
	return err
}

// LastLSN implements Log.
func (l *FileLog) LastLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Close implements Log.
func (l *FileLog) Close() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: flush on close: %w", err)
	}
	return l.f.Close()
}
