package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"groupsafe/internal/storage"
	"groupsafe/internal/workload"
)

// Request is a client transaction submitted to a delegate replica.
type Request struct {
	// ID identifies the transaction; zero lets the delegate assign one.
	ID uint64
	// Ops is the ordered list of read and write operations.
	Ops []workload.Op
	// Compute, when non-nil, is invoked at the delegate after the read
	// operations of Ops have executed; it receives the values read and
	// returns additional operations (typically writes computed from the
	// reads, e.g. "balance - amount").  The returned operations become part
	// of the same transaction, so the certification step protects the
	// read-compute-write cycle against concurrent conflicting updates.
	Compute func(reads map[int]int64) []workload.Op
	// Safety, when non-nil, overrides the replica's configured safety level
	// for this transaction alone: the requested level rides in the broadcast
	// payload and every replica externalises the transaction at that level's
	// force/ack/delivery point, so mixed-safety workloads share one cluster.
	// Levels weaker than the technique's floor are canonicalised up (see
	// CanonicalLevel); levels needing machinery the cluster was not built
	// with (e.g. 2-safe on a classical-broadcast cluster) are rejected with
	// ErrSafetyUnavailable.  Nil means "use the cluster's configured level".
	Safety *SafetyLevel
	// ReadOnly declares the transaction a query: it executes on a local MVCC
	// snapshot of the delegate replica — no locks, no group communication, no
	// aborts.  A ReadOnly request whose Ops contain a write (or that carries a
	// Compute hook, which could emit one) is rejected with ErrReadOnlyWrites.
	// Requests without writes take the same snapshot fast path even when the
	// flag is unset; the flag exists to make the intent explicit and fail
	// loudly when a write sneaks into a query.
	ReadOnly bool
	// MinFreshness, meaningful for read-only execution on the totally-ordered
	// techniques, makes the serving replica wait until it has applied at
	// least this broadcast sequence before taking its snapshot.  Passing the
	// Freshness token of an earlier Result yields monotonic session reads
	// ("read your writes" across replicas).  Zero imposes no floor.
	MinFreshness uint64
	// MinFreshnessVec is the partitioned form of MinFreshness: entry p floors
	// partition p's applied sequence.  It is consumed by the partition router
	// (which forwards each entry to the owning partition) and ignored by a
	// single core replica; feeding back Result.FreshnessVec gives monotonic
	// session reads on a partitioned cluster.  A scalar MinFreshness on a
	// partitioned cluster floors every touched partition instead.  Nil or a
	// short vector imposes no floor on the missing entries.
	MinFreshnessVec []uint64
	// MaxStaleness, meaningful for read-only execution on the totally-ordered
	// techniques, is a bounded-staleness lease: the serving replica answers
	// immediately when it can prove its snapshot is at most this much
	// wall-clock time behind the freshest advertised state (sequence lag
	// divided by the estimated delivery rate), and rejects with ErrTooStale —
	// never waits — when it cannot, so the client redirects to a fresher
	// replica.  Zero imposes no bound.
	MaxStaleness time.Duration
}

// Outcome is the terminal state of a replicated transaction.
type Outcome int

const (
	// OutcomePending means the transaction has not reached a decision yet.
	OutcomePending Outcome = iota
	// OutcomeCommitted means the transaction committed.
	OutcomeCommitted
	// OutcomeAborted means certification aborted the transaction.
	OutcomeAborted
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomePending:
		return "pending"
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Result is returned to the client when the safety level's notification
// condition is met.
type Result struct {
	TxnID      uint64
	Outcome    Outcome
	ReadValues map[int]int64
	Delegate   string
	// Level is the safety level the transaction was actually externalised at
	// (the cluster level, or the canonicalised per-request override).
	Level SafetyLevel
	// CommitLSN is the position of the transaction's commit record in the
	// delegate's local write-ahead log, or zero when nothing was logged there
	// (read-only or aborted transactions).  At response time the record is
	// durable only if Level forces on commit; Replica.WaitDurable(ctx, lsn)
	// forces the gap on demand — the paper's response-vs-durability window.
	CommitLSN uint64
	// Freshness is the transaction's position in the cluster's total order:
	// for a committed update, its own broadcast sequence; for a read-only
	// transaction, the last sequence the serving replica had applied when the
	// snapshot was taken.  Feeding the largest Freshness seen back into
	// Request.MinFreshness gives monotonic session reads across replicas.
	// Zero on techniques/levels without group communication.
	Freshness uint64
	// Stale marks a read-only result served from possibly-stale state with no
	// freshness token to reason about it: a secondary replica of the lazy
	// primary-copy technique (the paper's 1-safe query trade-off).
	Stale bool
	// CommitPartition is the partition whose replica write-ahead log holds
	// CommitLSN on a partitioned cluster — the owning partition for a
	// single-partition transaction, the coordinator partition for a
	// cross-partition one.  Always zero on unpartitioned clusters (the only
	// partition).  Set by the partition router; a core replica leaves it zero.
	CommitPartition int
	// FreshnessVec is the per-partition freshness vector of a partitioned
	// cluster: entry p is the transaction's position in partition p's total
	// order (zero for partitions it did not touch).  Populated by the
	// partition router when the cluster runs more than one partition; nil
	// otherwise.  Freshness is then the vector's maximum, so scalar session
	// code keeps working unchanged.
	FreshnessVec []uint64
}

// Committed reports whether the transaction committed.
func (r Result) Committed() bool { return r.Outcome == OutcomeCommitted }

// readVer is one (item, observed version) pair of a certification read set.
type readVer struct {
	Item int
	Ver  uint64
}

// txnRecord is the decoded form of the message broadcast to the group for
// one update transaction: the versions observed by the delegate's reads (for
// certification), the write set to install, and the safety level the
// transaction must be externalised at (per-transaction overrides ride in the
// payload so every replica forces and acknowledges consistently).  Reads and
// Writes are sorted by item; the slices are reused across deliveries by the
// apply loop's decode arena, so they must not be retained past the batch
// that decoded them.
type txnRecord struct {
	TxnID    uint64
	Delegate string
	Level    SafetyLevel
	Reads    []readVer
	Writes   []storage.Write
	// Phase distinguishes a cross-partition two-phase-commit message from a
	// normal one-shot transaction (phaseNone).  Prepares carry the full read
	// and write sets for certification and staging; decides carry the write
	// set so a replica without a local prepare still installs the commit.
	Phase byte
	// Coord is the coordinator partition id (prepare messages only).
	Coord int
}

// Two-phase-commit message phases (txnRecord.Phase).
const (
	phaseNone byte = iota
	phasePrepare
	phaseDecideCommit
	phaseDecideAbort
)

// lazyPayload is the write set propagated asynchronously by the lazy (1-safe)
// technique.
type lazyPayload struct {
	TxnID    uint64
	Delegate string
	Writes   map[int]int64
}

// ackPayload is the per-replica acknowledgement used by the very-safe level.
type ackPayload struct {
	TxnID   uint64
	Replica string
}

func encodePayload(v interface{}) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("core: encode payload: %v", err))
	}
	return buf.Bytes()
}

func decodePayload(data []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// writeSetOf converts a payload write map into a storage.WriteSet.
func writeSetOf(writes map[int]int64) storage.WriteSet {
	ws := make(storage.WriteSet, len(writes))
	for k, v := range writes {
		ws[k] = v
	}
	return ws
}

// --- binary transaction payload codec (replicated hot path) ---
//
// The lazy and very-safe control payloads above stay gob-encoded (they are
// off the hot path), but the transaction payload travels once per update
// transaction through the atomic broadcast, so it uses a compact varint
// encoding with pooled scratch buffers: exactly one allocation per encode
// (the wire slice itself) instead of gob's encoder, type descriptors and map
// churn.

// txnMagic versions the binary transaction payload format.
const txnMagic = 0xA7

// payloadScratch is the pooled encode scratch: a sort buffer for the map keys
// and an append buffer for the varint stream.
type payloadScratch struct {
	items []int
	buf   []byte
}

var payloadPool = sync.Pool{New: func() interface{} { return new(payloadScratch) }}

// encodeTxnPayload encodes one update transaction for broadcast.  Reads and
// writes are emitted sorted by item, so the apply side decodes directly into
// the sorted-slice form the install and the WAL staging path need.
func encodeTxnPayload(txnID uint64, delegate string, level SafetyLevel, readVers map[int]uint64, writes map[int]int64) []byte {
	s := payloadPool.Get().(*payloadScratch)
	buf := append(s.buf[:0], txnMagic)
	buf = binary.AppendUvarint(buf, txnID)
	buf = binary.AppendUvarint(buf, uint64(len(delegate)))
	buf = append(buf, delegate...)
	buf = binary.AppendUvarint(buf, uint64(level))

	items := s.items[:0]
	for it := range readVers {
		items = append(items, it)
	}
	sort.Ints(items)
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = binary.AppendUvarint(buf, uint64(it))
		buf = binary.AppendUvarint(buf, readVers[it])
	}

	items = items[:0]
	for it := range writes {
		items = append(items, it)
	}
	sort.Ints(items)
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = binary.AppendUvarint(buf, uint64(it))
		buf = binary.AppendVarint(buf, writes[it])
	}

	out := make([]byte, len(buf))
	copy(out, buf)
	s.buf = buf
	s.items = items
	payloadPool.Put(s)
	return out
}

// twoPCMagic versions the binary cross-partition (two-phase-commit) payload:
// the txnMagic layout with a phase byte and a coordinator partition id after
// the level.  A separate magic keeps the single-partition fast path's payload
// byte-identical to before partitioning existed.
const twoPCMagic = 0xA9

// encode2PCPayload encodes one cross-partition sub-transaction message
// (prepare or decide) for broadcast through a partition's total order.
func encode2PCPayload(phase byte, gid uint64, delegate string, level SafetyLevel, coord int, readVers map[int]uint64, writes map[int]int64) []byte {
	s := payloadPool.Get().(*payloadScratch)
	buf := append(s.buf[:0], twoPCMagic, phase)
	buf = binary.AppendUvarint(buf, gid)
	buf = binary.AppendUvarint(buf, uint64(len(delegate)))
	buf = append(buf, delegate...)
	buf = binary.AppendUvarint(buf, uint64(level))
	buf = binary.AppendUvarint(buf, uint64(coord))

	items := s.items[:0]
	for it := range readVers {
		items = append(items, it)
	}
	sort.Ints(items)
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = binary.AppendUvarint(buf, uint64(it))
		buf = binary.AppendUvarint(buf, readVers[it])
	}

	items = items[:0]
	for it := range writes {
		items = append(items, it)
	}
	sort.Ints(items)
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = binary.AppendUvarint(buf, uint64(it))
		buf = binary.AppendVarint(buf, writes[it])
	}

	out := make([]byte, len(buf))
	copy(out, buf)
	s.buf = buf
	s.items = items
	payloadPool.Put(s)
	return out
}

// --- binary operation-list payload codec (active replication hot path) ---

// opsMagic versions the binary operation-list payload of active replication.
const opsMagic = 0xA8

// opsRecord is the decoded form of the message broadcast by active
// replication: the full deterministic operation list, executed by every
// replica in delivery order.  Ops is reused across deliveries by the apply
// loop's decode arena, so it must not be retained past the delivery that
// decoded it.
type opsRecord struct {
	TxnID    uint64
	Delegate string
	Level    SafetyLevel
	Ops      []workload.Op
}

// encodeOpsPayload encodes one update transaction's operation list for
// active replication, using the same pooled-scratch varint style as
// encodeTxnPayload: one allocation per encode.
func encodeOpsPayload(txnID uint64, delegate string, level SafetyLevel, ops []workload.Op) []byte {
	s := payloadPool.Get().(*payloadScratch)
	buf := append(s.buf[:0], opsMagic)
	buf = binary.AppendUvarint(buf, txnID)
	buf = binary.AppendUvarint(buf, uint64(len(delegate)))
	buf = append(buf, delegate...)
	buf = binary.AppendUvarint(buf, uint64(level))
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		flag := byte(0)
		if op.Write {
			flag = 1
		}
		buf = append(buf, flag)
		buf = binary.AppendUvarint(buf, uint64(op.Item))
		if op.Write {
			buf = binary.AppendVarint(buf, op.Value)
		}
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	s.buf = buf
	payloadPool.Put(s)
	return out
}

// decodeOpsRecord decodes a binary operation-list payload into rec, reusing
// rec's Ops slice (the apply loop's decode arena).
func decodeOpsRecord(data []byte, rec *opsRecord) error {
	if len(data) == 0 || data[0] != opsMagic {
		return errBadTxnPayload
	}
	pos := 1
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	id, ok := next()
	if !ok {
		return errBadTxnPayload
	}
	rec.TxnID = id
	dlen, ok := next()
	if !ok || dlen > uint64(len(data)-pos) {
		return errBadTxnPayload
	}
	rec.Delegate = string(data[pos : pos+int(dlen)])
	pos += int(dlen)
	lvl, ok := next()
	if !ok {
		return errBadTxnPayload
	}
	rec.Level = SafetyLevel(lvl)

	nOps, ok := next()
	if !ok || nOps > uint64(len(data)-pos) {
		return errBadTxnPayload
	}
	rec.Ops = rec.Ops[:0]
	for i := uint64(0); i < nOps; i++ {
		if pos >= len(data) {
			return errBadTxnPayload
		}
		write := data[pos] == 1
		pos++
		item, ok := next()
		if !ok {
			return errBadTxnPayload
		}
		op := workload.Op{Item: int(item), Write: write}
		if write {
			v, n := binary.Varint(data[pos:])
			if n <= 0 {
				return errBadTxnPayload
			}
			pos += n
			op.Value = v
		}
		rec.Ops = append(rec.Ops, op)
	}
	return nil
}

var errBadTxnPayload = errors.New("core: malformed transaction payload")

// decodeTxnRecord decodes a binary transaction payload (txnMagic or
// twoPCMagic) into rec, reusing rec's slices (the apply loop's decode arena).
func decodeTxnRecord(data []byte, rec *txnRecord) error {
	if len(data) == 0 || (data[0] != txnMagic && data[0] != twoPCMagic) {
		return errBadTxnPayload
	}
	twoPC := data[0] == twoPCMagic
	pos := 1
	rec.Phase = phaseNone
	rec.Coord = 0
	if twoPC {
		if len(data) < 2 || data[1] == phaseNone || data[1] > phaseDecideAbort {
			return errBadTxnPayload
		}
		rec.Phase = data[1]
		pos = 2
	}
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	id, ok := next()
	if !ok {
		return errBadTxnPayload
	}
	rec.TxnID = id
	dlen, ok := next()
	if !ok || dlen > uint64(len(data)-pos) {
		return errBadTxnPayload
	}
	rec.Delegate = string(data[pos : pos+int(dlen)])
	pos += int(dlen)
	lvl, ok := next()
	if !ok {
		return errBadTxnPayload
	}
	rec.Level = SafetyLevel(lvl)
	if twoPC {
		coord, ok := next()
		if !ok {
			return errBadTxnPayload
		}
		rec.Coord = int(coord)
	}

	nReads, ok := next()
	if !ok || nReads > uint64(len(data)-pos) {
		return errBadTxnPayload
	}
	rec.Reads = rec.Reads[:0]
	for i := uint64(0); i < nReads; i++ {
		item, ok1 := next()
		ver, ok2 := next()
		if !ok1 || !ok2 {
			return errBadTxnPayload
		}
		rec.Reads = append(rec.Reads, readVer{Item: int(item), Ver: ver})
	}

	nWrites, ok := next()
	if !ok || nWrites > uint64(len(data)-pos) {
		return errBadTxnPayload
	}
	rec.Writes = rec.Writes[:0]
	for i := uint64(0); i < nWrites; i++ {
		item, ok1 := next()
		val, n := binary.Varint(data[pos:])
		if n <= 0 {
			ok1 = false
		} else {
			pos += n
		}
		if !ok1 {
			return errBadTxnPayload
		}
		rec.Writes = append(rec.Writes, storage.Write{Item: int(item), Value: val})
	}
	return nil
}
