package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"sync"

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
	// Levels needing machinery the cluster was not built with (e.g. 2-safe
	// on a classical-broadcast cluster) are rejected with
	// ErrSafetyUnavailable; see effectiveLevel.  Nil means "use the
	// cluster's configured level".
	Safety *SafetyLevel
	// ReadOnly declares the transaction a query: it executes on a local MVCC
	// snapshot of the delegate replica — no locks, no group communication, no
	// aborts.  A ReadOnly request whose Ops contain a write (or that carries a
	// Compute hook, which could emit one) is rejected with ErrReadOnlyWrites.
	// Requests without writes take the same snapshot fast path even when the
	// flag is unset; the flag exists to make the intent explicit and fail
	// loudly when a write sneaks into a query.
	ReadOnly bool
	// MinFreshness, meaningful for read-only execution at the totally-ordered
	// (group-communication) levels, makes the serving replica wait until it
	// has applied at least this broadcast sequence before taking its
	// snapshot.  Passing the
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
	// Zero on levels without group communication.
	Freshness uint64
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

// txnHeader is the header every broadcast transaction payload starts with:
// the transaction, its delegate, and the safety level it must be
// externalised at (per-transaction overrides ride in the payload so every
// replica forces and acknowledges consistently).
type txnHeader struct {
	TxnID    uint64
	Delegate string
	Level    SafetyLevel
	// Phase distinguishes a cross-partition two-phase-commit message from a
	// normal one-shot transaction (phaseNone).  Prepares carry the full read
	// and write sets for certification and staging; decides carry the write
	// set so a replica without a local prepare still installs the commit.
	Phase byte
	// Coord is the coordinator partition id (prepare messages only).
	Coord int
}

// txnRecord is the decoded form of the message broadcast to the group for
// one update transaction: the versions observed by the delegate's reads (for
// certification) and the write set to install.  Reads and Writes are sorted
// by item; the slices are reused across deliveries by the apply loop's decode
// arena, so they must not be retained past the batch that decoded them.
type txnRecord struct {
	txnHeader
	Reads  []readVer
	Writes []storage.Write
}

// Two-phase-commit message phases (txnRecord.Phase).
const (
	phaseNone byte = iota
	phasePrepare
	phaseDecideCommit
	phaseDecideAbort
)

// lazyPayload is the write set propagated asynchronously at the 0-safe and
// lazy (1-safe) levels.
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

// Payload magics: each versions one binary payload layout.  Both share the
// header (appendHeader); twoPCMagic is the txnMagic layout with a phase byte
// after the magic and a coordinator partition id after the level, and a
// separate magic keeps the single-partition payload byte-identical to before
// partitioning existed.
const (
	txnMagic   = 0xA7
	twoPCMagic = 0xA9
)

var errBadTxnPayload = errors.New("core: malformed transaction payload")

// payloadScratch is the pooled encode scratch: a sort buffer for the map keys
// and an append buffer for the varint stream.
type payloadScratch struct {
	items []int
	buf   []byte
}

var payloadPool = sync.Pool{New: func() interface{} { return new(payloadScratch) }}

// finish copies the encoded payload out of the scratch, the one allocation
// of an encode, and returns the scratch to the pool.
func (s *payloadScratch) finish(buf []byte) []byte {
	out := make([]byte, len(buf))
	copy(out, buf)
	s.buf = buf
	payloadPool.Put(s)
	return out
}

// appendHeader appends the header readHeader parses.
func appendHeader(buf []byte, magic byte, h txnHeader) []byte {
	buf = append(buf, magic)
	if magic == twoPCMagic {
		buf = append(buf, h.Phase)
	}
	buf = binary.AppendUvarint(buf, h.TxnID)
	buf = binary.AppendUvarint(buf, uint64(len(h.Delegate)))
	buf = append(buf, h.Delegate...)
	buf = binary.AppendUvarint(buf, uint64(h.Level))
	if magic == twoPCMagic {
		buf = binary.AppendUvarint(buf, uint64(h.Coord))
	}
	return buf
}

// sortedKeys appends the keys of m to keys, sorted.
func sortedKeys[V any](keys []int, m map[int]V) []int {
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// encodeTxnPayload encodes one update transaction for broadcast: a one-shot
// transaction (phaseNone, the txnMagic layout) or one cross-partition prepare
// or decide (the twoPCMagic layout; only a prepare's coord is used).  Reads
// and writes are emitted sorted by item, so the apply side decodes directly
// into the sorted-slice form the install and the WAL staging path need.
func encodeTxnPayload(phase byte, txnID uint64, delegate string, level SafetyLevel, coord int, readVers map[int]uint64, writes map[int]int64) []byte {
	s := payloadPool.Get().(*payloadScratch)
	magic := byte(txnMagic)
	if phase != phaseNone {
		magic = twoPCMagic
	}
	buf := appendHeader(s.buf[:0], magic, txnHeader{TxnID: txnID, Delegate: delegate, Level: level, Phase: phase, Coord: coord})
	items := sortedKeys(s.items[:0], readVers)
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = binary.AppendUvarint(buf, uint64(it))
		buf = binary.AppendUvarint(buf, readVers[it])
	}
	items = sortedKeys(items[:0], writes)
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = binary.AppendUvarint(buf, uint64(it))
		buf = binary.AppendVarint(buf, writes[it])
	}
	s.items = items
	return s.finish(buf)
}

// payloadReader walks the varint stream of a binary payload.  The first
// malformed field clears ok for good and empties data, so a decoder checks
// ok once, at the end.
type payloadReader struct {
	data []byte
	ok   bool
}

func (p *payloadReader) fail() { p.data, p.ok = nil, false }

func (p *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(p.data)
	if n <= 0 {
		p.fail()
		return 0
	}
	p.data = p.data[n:]
	return v
}

func (p *payloadReader) varint() int64 {
	v, n := binary.Varint(p.data)
	if n <= 0 {
		p.fail()
		return 0
	}
	p.data = p.data[n:]
	return v
}

func (p *payloadReader) flag() byte {
	if len(p.data) == 0 {
		p.fail()
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

// count reads a length, which cannot exceed the bytes left: every counted
// element takes at least one.
func (p *payloadReader) count() int {
	n := p.uvarint()
	if n > uint64(len(p.data)) {
		p.fail()
		return 0
	}
	return int(n)
}

// readHeader parses the header appendHeader wrote into h and returns the
// payload's magic (zero for an empty payload) and a reader positioned at the
// body.
func readHeader(data []byte, h *txnHeader) (byte, payloadReader) {
	if len(data) == 0 {
		return 0, payloadReader{}
	}
	magic, p := data[0], payloadReader{data: data[1:], ok: true}
	h.Phase, h.Coord = phaseNone, 0
	if magic == twoPCMagic {
		if h.Phase = p.flag(); h.Phase == phaseNone || h.Phase > phaseDecideAbort {
			p.fail()
		}
	}
	h.TxnID = p.uvarint()
	n := p.count()
	h.Delegate = string(p.data[:n])
	p.data = p.data[n:]
	h.Level = SafetyLevel(p.uvarint())
	if magic == twoPCMagic {
		h.Coord = int(p.uvarint())
	}
	return magic, p
}

// decodeTxnRecord decodes a binary transaction payload (txnMagic or
// twoPCMagic) into rec, reusing rec's slices (the apply loop's decode arena).
func decodeTxnRecord(data []byte, rec *txnRecord) error {
	magic, p := readHeader(data, &rec.txnHeader)
	if magic != txnMagic && magic != twoPCMagic {
		return errBadTxnPayload
	}
	rec.Reads = rec.Reads[:0]
	for n := p.count(); n > 0; n-- {
		rec.Reads = append(rec.Reads, readVer{Item: int(p.uvarint()), Ver: p.uvarint()})
	}
	rec.Writes = rec.Writes[:0]
	for n := p.count(); n > 0; n-- {
		rec.Writes = append(rec.Writes, storage.Write{Item: int(p.uvarint()), Value: p.varint()})
	}
	if !p.ok {
		return errBadTxnPayload
	}
	return nil
}
