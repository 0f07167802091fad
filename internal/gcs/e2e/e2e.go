// Package e2e implements the paper's new group communication primitive:
// end-to-end atomic broadcast (Sect. 4.2).
//
// A classical atomic broadcast guarantees that messages are *delivered* to
// the application, but a crash between delivery and processing loses the
// message: this is why group-communication-based replication cannot be 2-safe
// (Sect. 3, Fig. 5).  End-to-end atomic broadcast closes the gap:
//
//   - every delivered message is written to the stable log by the group
//     communication component before it is handed to the application, and is
//     stable before anything about it is externalised (log-based recovery
//     instead of state transfer);
//   - the application signals *successful delivery* by acknowledging the
//     message (Ack);
//   - after a crash, every logged-but-unacknowledged message is delivered
//     again (Recover), so a non-red process eventually successfully delivers
//     every message (End-to-End property);
//   - a message may be delivered several times but is successfully delivered
//     at most once (refined Uniform Integrity): deliveries for already
//     acknowledged sequence numbers are suppressed, and the application's
//     testable-transaction mechanism makes reprocessing idempotent.
package e2e

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/varint"
	"groupsafe/internal/wal"
)

// Delivery is a message delivered to the application.  Replayed is true when
// the delivery is a post-recovery replay of a logged, unacknowledged message.
// LSN is the position of the message's record in the stable log.
type Delivery struct {
	Seq      uint64
	MsgID    string
	Payload  []byte
	Replayed bool
	LSN      wal.LSN
}

// Underlying is the classical atomic broadcast being wrapped.
type Underlying interface {
	Broadcast(payload []byte) (string, error)
	Deliveries() <-chan abcast.Delivery
	Close()
}

// Config configures the end-to-end layer.
type Config struct {
	// Log is the stable log (required).  It may be shared: only
	// wal.KindMessage and wal.KindAck records are read back.
	Log wal.Log
	// ConsumerForces says the consumer of Deliveries forces Log itself, up to
	// Delivery.LSN, before it externalises anything about a message (the
	// replica's apply loop: one force per batch covers message and commit
	// records).  The pump then appends and hands off without forcing; by
	// default it forces each drained batch before hand-off.
	ConsumerForces bool
}

// ErrClosed is returned by operations on a closed broadcaster.
var ErrClosed = errors.New("e2e: broadcaster closed")

// deliveryBuffer is the delivery channel capacity.
const deliveryBuffer = 65536

// Broadcaster is an end-to-end atomic broadcast endpoint.
type Broadcaster struct {
	under Underlying
	log   wal.Log
	sync  bool

	mu sync.Mutex
	// What is kept is bounded by the unacknowledged suffix, not the history:
	// a payload is dropped once acknowledged, and the acknowledged set is a
	// watermark plus the few sequence numbers acknowledged ahead of it.
	delivered map[uint64]Delivery // logged, unacknowledged deliveries
	order     []uint64            // their sequence numbers, ascending
	low       uint64              // every sequence number <= low is acknowledged or was never delivered
	above     map[uint64]struct{} // acknowledged sequence numbers > low
	closed    bool
	started   bool
	stop      chan struct{}
	done      chan struct{}

	deliveries chan Delivery

	stats Stats
}

// Stats are cumulative counters of the end-to-end layer.
type Stats struct {
	Logged     uint64
	Acked      uint64
	Replayed   uint64
	Suppressed uint64
	// Forces counts log Syncs issued by the delivery pump.  The pump drains
	// the underlying broadcast opportunistically and forces once per drained
	// batch, so under load Forces grows much slower than Logged.
	Forces uint64
}

// Wrap builds an end-to-end broadcaster over an underlying atomic broadcast
// and a stable log.  Call Recover (optionally) and Start afterwards.
func Wrap(under Underlying, cfg Config) (*Broadcaster, error) {
	if cfg.Log == nil {
		return nil, fmt.Errorf("e2e: a stable log is required")
	}
	b := &Broadcaster{
		under:      under,
		log:        cfg.Log,
		sync:       !cfg.ConsumerForces,
		delivered:  make(map[uint64]Delivery),
		above:      make(map[uint64]struct{}),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		deliveries: make(chan Delivery, deliveryBuffer),
	}
	if err := b.loadLog(); err != nil {
		return nil, err
	}
	return b, nil
}

// loadLog rebuilds the unacknowledged suffix from the durable log.  Other
// kinds of record are skipped: their TxnID is not a sequence number.
func (b *Broadcaster) loadLog() error {
	var top uint64
	err := b.log.Replay(func(r wal.Record) error {
		switch r.Kind {
		case wal.KindMessage:
			msgID, payload, err := decodeMessage(r.Data)
			if err != nil {
				return fmt.Errorf("e2e: corrupt message record %d: %w", r.LSN, err)
			}
			if _, acked := b.above[r.TxnID]; !acked {
				b.delivered[r.TxnID] = Delivery{Seq: r.TxnID, MsgID: msgID, Payload: payload, LSN: r.LSN}
			}
		case wal.KindAck:
			b.above[r.TxnID] = struct{}{}
			delete(b.delivered, r.TxnID)
		default:
			return nil
		}
		top = max(top, r.TxnID)
		return nil
	})
	for seq := range b.delivered {
		b.order = append(b.order, seq)
	}
	sort.Slice(b.order, func(i, j int) bool { return b.order[i] < b.order[j] })
	b.low = top
	b.retireLocked()
	return err
}

// ackedLocked reports whether seq has been successfully delivered.
func (b *Broadcaster) ackedLocked(seq uint64) bool {
	_, ok := b.above[seq]
	return ok || seq <= b.low
}

// retireLocked advances the watermark to just below the oldest
// unacknowledged delivery — the underlying broadcast delivers in sequence
// order, so nothing lower can still arrive — and forgets what it covers.
func (b *Broadcaster) retireLocked() {
	for len(b.order) > 0 {
		if _, acked := b.above[b.order[0]]; !acked {
			break
		}
		b.low = max(b.low, b.order[0])
		b.order = b.order[1:]
	}
	if len(b.order) > 0 {
		b.low = b.order[0] - 1
	}
	for seq := range b.above {
		if seq <= b.low {
			delete(b.above, seq)
		}
	}
}

// Recover re-delivers, in sequence order, every logged message that was never
// acknowledged (the replay step of log-based recovery, Fig. 7).  It returns
// the number of replayed messages.
func (b *Broadcaster) Recover() (int, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return 0, ErrClosed
	}
	seqs := b.unackedLocked()
	replay := make([]Delivery, 0, len(seqs))
	for _, seq := range seqs {
		d := b.delivered[seq]
		d.Replayed = true
		replay = append(replay, d)
	}
	b.stats.Replayed += uint64(len(replay))
	b.mu.Unlock()
	for _, d := range replay {
		b.deliveries <- d
	}
	return len(replay), nil
}

// Start launches the pump that logs and forwards underlying deliveries.
func (b *Broadcaster) Start() {
	b.mu.Lock()
	if b.started || b.closed {
		b.mu.Unlock()
		return
	}
	b.started = true
	b.mu.Unlock()
	go b.pump()
}

// maxPumpBatch bounds how many underlying deliveries the pump drains into one
// log force.
const maxPumpBatch = 256

func (b *Broadcaster) pump() {
	defer close(b.done)
	for {
		select {
		case <-b.stop:
			return
		case d, ok := <-b.under.Deliveries():
			if !ok {
				return
			}
			// Drain whatever else is already queued: the whole batch is
			// logged with a single force instead of one per message.
			batch := []abcast.Delivery{d}
		drain:
			for len(batch) < maxPumpBatch {
				select {
				case d2, ok := <-b.under.Deliveries():
					if !ok {
						break drain
					}
					batch = append(batch, d2)
				default:
					break drain
				}
			}
			b.handleBatch(batch)
		}
	}
}

// handleBatch logs every new message of the batch, forces the log once
// unless the consumer does, and forwards the deliveries in order.
func (b *Broadcaster) handleBatch(batch []abcast.Delivery) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	forward := make([]Delivery, 0, len(batch))
	var toLog []int // indices into forward of the messages not logged yet
	for _, d := range batch {
		if b.ackedLocked(d.Seq) {
			// Already successfully delivered in a previous incarnation:
			// refined uniform integrity suppresses the duplicate.
			b.stats.Suppressed++
			continue
		}
		logged, alreadyLogged := b.delivered[d.Seq]
		if !alreadyLogged {
			toLog = append(toLog, len(forward))
		}
		forward = append(forward, Delivery{Seq: d.Seq, MsgID: d.MsgID, Payload: d.Payload, LSN: logged.LSN})
	}
	b.mu.Unlock()

	var data []byte
	for _, i := range toLog {
		d := &forward[i]
		data = appendMessage(data[:0], d.MsgID, d.Payload)
		lsn, err := b.log.Append(wal.Record{Kind: wal.KindMessage, TxnID: d.Seq, Data: data})
		if err != nil {
			return
		}
		d.LSN = lsn
	}
	forced := b.sync && len(toLog) > 0
	if forced && b.log.Sync() != nil {
		return
	}

	b.mu.Lock()
	for _, i := range toLog {
		d := forward[i]
		b.delivered[d.Seq] = d
		// Deliveries arrive in sequence order; anything else is slotted in.
		at := sort.Search(len(b.order), func(i int) bool { return b.order[i] >= d.Seq })
		b.order = append(b.order, 0)
		copy(b.order[at+1:], b.order[at:])
		b.order[at] = d.Seq
		b.stats.Logged++
	}
	if forced {
		b.stats.Forces++
	}
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return
	}
	for _, d := range forward {
		b.deliveries <- d
	}
}

// Broadcast A-broadcasts a payload through the underlying broadcast.
func (b *Broadcaster) Broadcast(payload []byte) (string, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return "", ErrClosed
	}
	b.mu.Unlock()
	return b.under.Broadcast(payload)
}

// Deliveries returns the channel of deliveries (initial and replayed).
func (b *Broadcaster) Deliveries() <-chan Delivery { return b.deliveries }

// Ack records the successful delivery of the message with the given sequence
// number: it will never be replayed again.
func (b *Broadcaster) Ack(seq uint64) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	if b.ackedLocked(seq) {
		b.mu.Unlock()
		return nil
	}
	b.above[seq] = struct{}{}
	delete(b.delivered, seq)
	b.retireLocked()
	b.stats.Acked++
	b.mu.Unlock()
	if _, err := b.log.Append(wal.Record{Kind: wal.KindAck, TxnID: seq}); err != nil {
		return fmt.Errorf("e2e: log ack: %w", err)
	}
	// Acknowledgements may be forced lazily: losing one only causes an extra
	// replay, which the application tolerates (testable transactions).
	return nil
}

// Acked reports whether seq has been successfully delivered.
func (b *Broadcaster) Acked(seq uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ackedLocked(seq)
}

// Unacked returns the sequence numbers delivered but not yet acknowledged.
func (b *Broadcaster) Unacked() []uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.unackedLocked()
}

func (b *Broadcaster) unackedLocked() []uint64 {
	var out []uint64
	for _, seq := range b.order {
		if _, acked := b.above[seq]; !acked {
			out = append(out, seq)
		}
	}
	return out
}

// Stats returns a snapshot of the counters.
func (b *Broadcaster) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Close stops the pump; it does not close the underlying broadcaster or the
// stable log (their lifetime belongs to the caller).
func (b *Broadcaster) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	started := b.started
	b.mu.Unlock()
	close(b.stop)
	if started {
		<-b.done
	}
}

// appendMessage appends the data of a message record to buf: the message
// id as a length-prefixed string, then the payload to the end.
func appendMessage(buf []byte, msgID string, payload []byte) []byte {
	return append(varint.AppendString(buf, msgID), payload...)
}

// decodeMessage is the inverse of appendMessage; the results own their bytes.
func decodeMessage(data []byte) (msgID string, payload []byte, err error) {
	r := varint.NewReader(data)
	msgID, payload = r.String(), append([]byte(nil), r.Rest()...)
	if err := r.Err(); err != nil {
		return "", nil, fmt.Errorf("message record: %w", err)
	}
	return msgID, payload, nil
}
