// Package wal implements the write-ahead log / stable-storage abstraction
// used by both the database component (transaction logging, redo recovery)
// and the end-to-end atomic broadcast (message logging and acknowledgement
// records).  A replica keeps both in one log: Record.Kind tells them apart,
// and each component skips the other's kinds on replay.
//
// Two implementations are provided:
//
//   - MemLog: an in-memory "stable storage" with explicit crash semantics
//     (records appended after the last Sync are lost by Crash) and an optional
//     synthetic sync latency, used by the simulated clusters and by the
//     failure-injection experiments of Figs. 5 and 7;
//   - FileLog: a real file-backed log with a CRC-checked binary record format,
//     used by the TCP cluster binaries and the durability tests.
package wal

import (
	"errors"
	"fmt"
)

// LSN is a log sequence number; the first record of a log has LSN 1.
type LSN uint64

// Kind identifies the type of a log record.
type Kind uint8

// Record kinds used by the database component and the group-communication
// component.
const (
	KindInvalid Kind = iota
	// Database component records.
	KindBegin
	KindUpdate
	KindCommit
	KindAbort
	// Group-communication component records (end-to-end atomic broadcast).
	KindMessage
	KindAck
	// KindIDMark bounds a replica's transaction-id counter: TxnID holds the
	// highest it may issue.  (Number 7 was a checkpoint kind never written.)
	KindIDMark
	// KindPrepare marks a cross-partition transaction as prepared (voted yes
	// in the ordered two-phase commit): its staged KindUpdate records are
	// in-doubt until a later KindCommit or KindAbort decides them.  Data
	// carries the coordinator partition id and the transaction's read items
	// (shared locks).  Appended at the end of the enum so persisted record
	// kinds keep their numbering.
	KindPrepare
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBegin:
		return "begin"
	case KindUpdate:
		return "update"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindMessage:
		return "message"
	case KindAck:
		return "ack"
	case KindIDMark:
		return "id-mark"
	case KindPrepare:
		return "prepare"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is a single write-ahead-log entry.
type Record struct {
	LSN   LSN
	Kind  Kind
	TxnID uint64
	Item  int64
	Value int64
	Data  []byte
}

// Log is the stable-storage interface shared by the in-memory and file-backed
// implementations.
type Log interface {
	// Append adds a record to the log and returns its LSN.  Appended records
	// are durable only after the next successful Sync.
	Append(Record) (LSN, error)
	// Sync makes all appended records durable.
	Sync() error
	// Replay invokes fn on every durable record in LSN order.  Implementations
	// replay only what would survive a crash (i.e. synced records for MemLog,
	// records physically in the file for FileLog).
	Replay(fn func(Record) error) error
	// LastLSN returns the LSN of the most recently appended record (0 if the
	// log is empty).
	LastLSN() LSN
	// Close releases resources held by the log.
	Close() error
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")
