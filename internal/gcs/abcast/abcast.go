// Package abcast implements a uniform atomic broadcast (total order
// broadcast) in the dynamic crash no-recovery model, the "classical" group
// communication primitive the paper builds on (Sect. 2.3).
//
// The protocol is a fixed-sequencer total order broadcast hardened for
// uniformity:
//
//  1. A-broadcast(m): the sender assigns m a unique message id, files the
//     payload locally and sends a DATA message to the sequencer whose ORDERs
//     it follows — none when that is itself.
//  2. The current sequencer assigns consecutive sequence numbers — to its own
//     payloads like to remote DATA — stores each assignment in its window and
//     sends an ORDER message to the other members.  The ORDER carries the
//     payloads it numbers, so a member gets each payload and its order in one
//     frame.
//  3. A vote for a (sequence, message id) pair says its member has stored that
//     assignment.  A member casts its own the moment it stores an ORDER and
//     tells the other members with an ACK.  The ORDER is the sequencer's vote
//     (it sends no ACK), so one that does not come from the sequencer of its
//     epoch is dropped.  A message is A-delivered at a member once the member
//     has the payload, the order, a majority of votes for the pair, and every
//     lower sequence number has been delivered.  The majority requirement
//     gives Uniform Agreement: if any process delivers m, a majority stores
//     its order, so every later sequencer learns it.  That covers the
//     sequencer's vote: it stored the assignment before announcing it and
//     stops assigning in the critical section in which it answers a NEWEPOCH,
//     so every STATE it can still send contains it.  No step a member takes
//     for itself touches the transport: an unbatched broadcast costs n(n−1)
//     messages, one more when its sender is not the sequencer, and in a group
//     of three delivery is two hops from it.  The ACK leaves at once for the
//     members whose delivery can be waiting on the vote: the sequencer of the
//     order's epoch, which holds only its own, and everybody when the ORDER
//     and a member's own vote are no majority.  In a group of three they are
//     one, so only the sequencer is told at once — 5 prompt messages, 4 when
//     the sender is the sequencer — and the third member up to delayCap later.
//     A vote nobody waits on may be late because delivery counts assignments
//     known to be *stored* and a takeover's gather reads the windows they are
//     stored in, not who has been told: the late ACK is needed only for the
//     cursor it carries.
//  4. When the sequencer is suspected, the next member (round-robin by epoch)
//     takes over: it gathers the known orders and pending payloads from a
//     majority, adopts the highest-epoch order for every sequence number,
//     re-announces them under its own epoch and continues numbering.  The
//     role moves in no other way: every epoch change is a takeover.
//
// There is one lane, and every wire message carries a *range* of protocol
// steps (sender.go, sequencer.go, member.go):
//
//   - The sender's batching is clocked off its own deliveries.  A payload
//     arriving while none of the sender's previous payloads are between send
//     and self-delivery goes out immediately (an idle sender pays zero added
//     latency); payloads arriving behind an in-flight batch buffer until that
//     batch's delivery drains the pipe — the group-commit discipline: waiting
//     is only ever done behind work that is already pending.  A DATA message
//     holds up to maxBatch payloads.
//   - The sequencer answers DATA with one ORDER assigning a contiguous
//     sequence range; assigning a range and announcing it are one serial
//     step, so every link carries its ORDERs in sequence order.  An idle
//     sequencer assigns on the thread that brought the payloads
//     (cut-through); otherwise a dedicated goroutine assigns, so assignment
//     of one batch overlaps decoding of the next and back-to-back DATA
//     batches coalesce into one wider ORDER.
//   - Members acknowledge a whole range with one ACK and merge contiguous
//     ranges: towards the members that can be waiting on the votes while more
//     ORDERs are known to be imminent (at most ackWindow), towards the rest
//     for delayCap, whatever arrives.
//
// Ordering, acknowledgement counting and delivery remain per (sequence,
// message id) pair internally, so partial batches interleave and fail over
// exactly like individual messages.
//
// What a member remembers is one seq-indexed window (window.go): every ORDER
// and ACK carries its sender's delivery cursor, and records below the lowest
// cursor of the non-suspected members are dropped.
//
// The resulting primitive satisfies Validity, Uniform Agreement, Uniform
// Integrity and Uniform Total Order (Sect. 2.3 of the paper) as long as a
// majority of the members stay up — and, as Sect. 3 of the paper shows, that
// is precisely not enough for 2-safe database replication, because delivery
// says nothing about processing.  See the e2e package for the paper's fix.
package abcast

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/transport"
)

// Message type identifiers on the wire.
const (
	MsgData     = "ab.data"
	MsgOrder    = "ab.order"
	MsgAck      = "ab.ack"
	MsgNack     = "ab.nack"
	MsgNewEpoch = "ab.newepoch"
	MsgState    = "ab.state"
)

// The lane's fixed parameters.  They were knobs while the fixed-delay and
// inline-sequencer lanes existed to compare against; one lane needs none.
const (
	// maxBatch is the most payloads one DATA message carries.
	maxBatch = 32
	// delayCap bounds how long a buffered payload waits for co-travellers
	// when the drain clock stalls (loss, a sequencer change).
	delayCap = time.Millisecond
	// ackWindow bounds how long a member holds an ACK for a mergeable
	// neighbour.
	ackWindow = 100 * time.Microsecond
	// ackMergeBound caps how many order acknowledgements one merged ACK may
	// carry before it is flushed regardless of the window.
	ackMergeBound = 256
	// deliveryBuffer is the capacity of the delivery channel: the apply loop
	// may trail the protocol by this many messages before deliveries block.
	deliveryBuffer = 65536
	// minFlushWait floors the sender's adaptive window: below this, timer
	// overhead exceeds the wait, and the size trigger closes hot batches anyway.
	minFlushWait = 20 * time.Microsecond
)

// Delivery is one totally-ordered message handed to the application.
type Delivery struct {
	Seq     uint64
	MsgID   string
	Payload []byte
}

// Config configures a broadcaster.
type Config struct {
	// Self is this member's address.
	Self string
	// Members is the static list of group members (must include Self; at
	// most 64 — acknowledgements are counted in a bitmask).
	Members []string
	// NackDelay is the retransmission period (default 3ms — comfortably
	// above a LAN message but far below any client timeout): a member whose
	// delivery cursor sits on an order-without-data stall that long asks the
	// group for the payload, and a sender whose own payload is still
	// unordered that long re-sends it to every other member.  Both retry at
	// the same cadence while the condition lasts.
	NackDelay time.Duration
	// Incarnation namespaces this member's message ids.  In the dynamic
	// crash no-recovery model a recovered process is a new process: if it
	// reuses its address, it MUST use a fresh incarnation, or its message
	// ids collide with its pre-crash broadcasts and the sequencer silently
	// refuses to order the new payloads.
	Incarnation uint64
}

// Stats are cumulative counters of the broadcaster.
type Stats struct {
	Broadcast  uint64
	Delivered  uint64
	Ordered    uint64
	EpochJumps uint64
	// MsgsSent counts point-to-point protocol messages handed to the router
	// (the denominator of the batching win: fewer sends per broadcast); a
	// fan-out counts the members it goes to, nothing is addressed to self.
	MsgsSent uint64
	// DataBatches counts the batches this member submitted, whether they left
	// as a DATA message or, at the sequencer, inside its ORDER;
	// Broadcast/DataBatches is the achieved mean batch size.
	DataBatches uint64
	// AckSends counts ACK messages this member emitted, once each whether the
	// ACK goes to one member or to all the others: in a group of three a vote
	// is emitted twice, at once to the sequencer and merged over delayCap to
	// the third member (a sequencer emits none for its own ORDERs).  Over the
	// group, Ordered/AckSends is the achieved mean merge width.
	AckSends uint64
	// NacksSent counts retransmission requests this member emitted after an
	// order-without-data stall outlived the bounded NackDelay wait.
	NacksSent uint64
	// Retransmits counts payloads this member re-sent: in answer to another
	// member's NACK, or to every other member because its own payload was
	// still unordered after NackDelay.
	Retransmits uint64
}

// ErrClosed is returned by Broadcast after Close.
var ErrClosed = errors.New("abcast: broadcaster closed")

// wire formats; DATA, ORDER and ACK are batched: one message covers a whole
// range of broadcasts.
type dataEntry struct {
	MsgID   string
	Payload []byte
}

type dataMsg struct {
	Entries []dataEntry
}

// orderMsg assigns the contiguous range [BaseSeq, BaseSeq+len(MsgIDs)) to the
// listed message ids: sequence BaseSeq+i carries MsgIDs[i], and Payloads[i] is
// its payload, nil when the sequencer does not hold it.  Its Epoch is
// also the order-epoch floor it teaches: receivers then reject ORDERs from
// lower epochs (they predate the crash takeover whose gather majority
// promised to forget them), while an epoch a member reached by suspicion
// alone voids nothing.
type orderMsg struct {
	Epoch    uint64
	BaseSeq  uint64
	MsgIDs   []string
	Payloads [][]byte
	// Cursor is the sender's delivery cursor: it has delivered every
	// sequence number below it.  Receivers prune their window with it.
	Cursor uint64
}

// payload returns the payload the ORDER carries for MsgIDs[i], nil if none.
func (o *orderMsg) payload(i int) []byte {
	if i < len(o.Payloads) {
		return o.Payloads[i]
	}
	return nil
}

// ackMsg acknowledges a whole order range at once.
type ackMsg struct {
	Epoch   uint64
	BaseSeq uint64
	MsgIDs  []string
	// Cursor is the sender's delivery cursor, as in orderMsg.
	Cursor uint64
}

type newEpochMsg struct {
	Epoch uint64
}

// Broadcaster implements uniform atomic broadcast for one group member.
type Broadcaster struct {
	cfg    Config
	router *gcs.Router
	self   int            // index of cfg.Self in cfg.Members
	member map[string]int // address → index in cfg.Members

	mu            sync.Mutex
	epoch         uint64
	minOrderEpoch uint64 // ORDERs below this epoch are void (crash-takeover floor)
	nextSeq       uint64 // next sequence number this sequencer will assign
	nextDeliver   uint64 // next sequence number to deliver (1-based)
	localCounter  uint64

	// What this member knows of the total order (window.go).
	win       window
	idx       map[string]uint64     // ordered ids in the window → their lowest sequence number
	unordered map[string][]byte     // payloads whose ORDER has not arrived
	pruned    map[string]*senderLog // per sender incarnation: counters that left the window
	cursors   []atomic.Uint64       // by member index: latest advertised delivery cursor
	suspected []bool                // by member index

	gathering   bool
	gatherEpoch uint64
	gatherFrom  map[string]stateMsg

	// Sender state (sender.go).
	sendBuf     []dataEntry   // payloads awaiting batch flush
	flushTimer  *time.Timer   // single resettable timer, reused across batches
	flushArmed  bool          // the timer is set for the currently open batch
	sendGapEWMA time.Duration // EWMA of Broadcast inter-arrival gaps
	lastSendAt  time.Time     // previous buffered Broadcast arrival
	inFlight    int           // own payloads sent but not yet self-delivered

	closed   bool
	stats    Stats
	idPrefix string // "self/incarnation/", precomputed for message ids
	idBuf    []byte // scratch for message-id formatting (under mu)

	// Retransmission state (nack.go): one periodic check while a stall or an
	// unordered own payload exists.
	nackTimer *time.Timer
	nackArmed bool
	stallSeq  uint64 // order-without-data stall seen at the previous check
	retryMark uint64 // own counters <= this were already sent at the previous check

	// Sequencer state (sequencer.go).  orderMu (taken before mu) is held from
	// the assignment of a range until its ORDER is on every link.  Payloads
	// arriving meanwhile, or behind a backlog, queue in orderQ and a dedicated
	// goroutine assigns them, overlapping with decoding.
	orderMu   sync.Mutex
	orderQ    []dataEntry
	orderKick chan struct{} // cap 1, nudges orderLoop
	orderStop chan struct{} // closed by Close

	// ACK coalescing state (member.go): contiguous same-epoch ORDER ranges
	// merge into one pending ACK per audience, flushed by adjacency break,
	// size, its window timer, or Close.
	ackPend pendingAck // for the members whose delivery can be waiting on the vote
	ackLazy pendingAck // for the rest

	// Send-path counters and the advertised cursor are atomic so the send
	// helpers do not need to re-acquire mu (they run on every protocol
	// message).
	msgsSent    atomic.Uint64
	dataBatches atomic.Uint64
	ackSends    atomic.Uint64
	cursor      atomic.Uint64 // mirror of nextDeliver

	// deliverMu serialises tryDeliver: the receiving threads, broadcasting
	// callers, the ordering goroutine and the timers all deliver, and the
	// channel must receive the total order in order.
	deliverMu  sync.Mutex
	ready      []Delivery // scratch, under deliverMu
	deliveries chan Delivery
}

// New creates a broadcaster and registers its message handlers on the router.
// The router must be started by the caller.
func New(cfg Config, router *gcs.Router) (*Broadcaster, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("abcast: empty member list")
	}
	if len(cfg.Members) > 64 {
		return nil, fmt.Errorf("abcast: %d members, at most 64 are supported", len(cfg.Members))
	}
	member := make(map[string]int, len(cfg.Members))
	for i, m := range cfg.Members {
		member[m] = i
	}
	self, found := member[cfg.Self]
	if !found {
		return nil, fmt.Errorf("abcast: self %q not in member list", cfg.Self)
	}
	if cfg.NackDelay <= 0 {
		cfg.NackDelay = 3 * time.Millisecond
	}
	b := &Broadcaster{
		cfg:         cfg,
		router:      router,
		self:        self,
		member:      member,
		nextSeq:     1,
		nextDeliver: 1,
		win:         newWindow(),
		idx:         make(map[string]uint64),
		unordered:   make(map[string][]byte),
		pruned:      make(map[string]*senderLog),
		cursors:     make([]atomic.Uint64, len(cfg.Members)),
		suspected:   make([]bool, len(cfg.Members)),
		orderKick:   make(chan struct{}, 1),
		orderStop:   make(chan struct{}),
		deliveries:  make(chan Delivery, deliveryBuffer),
		idPrefix:    cfg.Self + "/" + strconv.FormatUint(cfg.Incarnation, 10) + "/",
		ackPend:     pendingAck{window: ackWindow},
		ackLazy:     pendingAck{window: delayCap, lazy: true},
	}
	b.cursor.Store(1)
	go b.orderLoop()
	router.Handle("ab.", b.onMessage)
	return b, nil
}

// Deliveries returns the channel of A-delivered messages in total order.
func (b *Broadcaster) Deliveries() <-chan Delivery { return b.deliveries }

// Members returns the static member list.
func (b *Broadcaster) Members() []string {
	out := make([]string, len(b.cfg.Members))
	copy(out, b.cfg.Members)
	return out
}

// Self returns this member's address.
func (b *Broadcaster) Self() string { return b.cfg.Self }

// Epoch returns the current sequencer epoch.
func (b *Broadcaster) Epoch() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

// Sequencer returns the address of the sequencer for the current epoch.
func (b *Broadcaster) Sequencer() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sequencerFor(b.epoch)
}

// SkipTo positions the delivery cursor so that the next delivered message is
// the one with sequence number seq.  It is used after a checkpoint-based
// state transfer: the recovering process's database already reflects every
// message below seq, and the dynamic crash no-recovery model never redelivers
// them (which is exactly the gap exploited by the scenario of Fig. 5).
func (b *Broadcaster) SkipTo(seq uint64) {
	b.mu.Lock()
	if seq > b.nextDeliver {
		b.nextDeliver = seq
		b.cursor.Store(seq)
	}
	b.mu.Unlock()
	b.tryDeliver()
}

// NextDeliver returns the sequence number of the next message to deliver.
func (b *Broadcaster) NextDeliver() uint64 { return b.cursor.Load() }

// Stats returns a snapshot of the broadcaster counters.
func (b *Broadcaster) Stats() Stats {
	b.mu.Lock()
	s := b.stats
	b.mu.Unlock()
	s.MsgsSent = b.msgsSent.Load()
	s.DataBatches = b.dataBatches.Load()
	s.AckSends = b.ackSends.Load()
	return s
}

// Close shuts the broadcaster down: later broadcasts fail and inbound
// messages are ignored.  A pending partial batch is flushed first, so every
// Broadcast that returned a message id has been handed to the network.
// Deliveries already queued remain readable; the delivery channel itself is
// not closed (consumers select with their own shutdown signal).
func (b *Broadcaster) Close() {
	b.mu.Lock()
	for !b.closed && len(b.sendBuf) > 0 {
		batch := b.takeBatchLocked()
		b.inFlight += len(batch)
		b.submitLocked(batch)
		b.mu.Lock()
	}
	b.mu.Unlock()
	b.drainOrderQ() // a sequencer's queued assignments leave too
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	ack, haveAck := b.ackPend.take()
	lazy, haveLazy := b.ackLazy.take()
	b.closed = true
	if b.nackTimer != nil {
		b.nackTimer.Stop()
	}
	b.mu.Unlock()
	close(b.orderStop)
	if haveAck {
		b.sendAck(ack, false)
	}
	if haveLazy {
		b.sendAck(lazy, true)
	}
}

func (b *Broadcaster) majority() int { return len(b.cfg.Members)/2 + 1 }

// selfBit is this member's bit in a record's voters mask.
func (b *Broadcaster) selfBit() uint64 { return 1 << uint(b.self) }

func (b *Broadcaster) sequencerFor(epoch uint64) string {
	return b.cfg.Members[int(epoch)%len(b.cfg.Members)]
}

// sendAll sends m to the other members; a member's own steps are local.
func (b *Broadcaster) sendAll(m transport.Message) {
	b.msgsSent.Add(uint64(len(b.cfg.Members) - 1))
	for i, member := range b.cfg.Members {
		if i != b.self {
			_ = b.router.Send(member, m) // at-most-once transport: loss is the NACK timer's job
		}
	}
}

// sendData sends one DATA batch of this member's own payloads to the
// sequencer it follows.
func (b *Broadcaster) sendData(sequencer string, batch []dataEntry) {
	b.msgsSent.Add(1)
	_ = b.router.Send(sequencer, transport.Message{Type: MsgData, Payload: encodeData(dataMsg{Entries: batch})}) // a lost DATA is re-sent by checkStalls
}

// sendAck sends an ACK, counting it for the coalescing stats and stamping the
// sender's cursor, to the members its votes are urgent for or, lazy, to
// the rest.  A vote is urgent for a member whose delivery can be waiting on
// it: the sequencer of the order's epoch, which holds only its own vote, and
// everybody when the member's own vote and the ORDER — the sequencer's — fall
// short of a majority.  A member that already holds a majority needs the vote
// only for the cursor it carries, and that can be a delayCap late.
func (b *Broadcaster) sendAck(a ackMsg, lazy bool) {
	a.Cursor = b.cursor.Load()
	b.ackSends.Add(1)
	m := transport.Message{Type: MsgAck, Payload: encodeAck(a)}
	sequencer, everybody := b.sequencerFor(a.Epoch), b.majority() > 2
	for i, member := range b.cfg.Members {
		if urgent := everybody || member == sequencer; i != b.self && urgent != lazy {
			b.msgsSent.Add(1)
			_ = b.router.Send(member, m) // at-most-once transport, like sendAll
		}
	}
}

// sendOrder fans an ORDER out to the other members, stamping the sender's
// cursor; an assignment that found every payload already ordered (a
// retransmission) is empty and sends nothing.  It is the one place the
// payloads a sequencer numbers leave it, its own included.
func (b *Broadcaster) sendOrder(o orderMsg) {
	if len(o.MsgIDs) == 0 {
		return
	}
	o.Cursor = b.cursor.Load()
	b.sendAll(transport.Message{Type: MsgOrder, Payload: encodeOrder(o)})
}

// noteCursor records a peer's advertised delivery cursor, the input of the
// window's stability watermark.  Latest wins, not highest: links are FIFO,
// and a recovered incarnation legitimately restarts below its predecessor's
// cursor.  It needs no lock, so an ACK's cursor counts from the moment it
// arrives, not once its handler wins mu from the ORDERs of another link.
func (b *Broadcaster) noteCursor(from string, cursor uint64) {
	if i, ok := b.member[from]; ok {
		b.cursors[i].Store(cursor)
	}
}

// onMessage dispatches inbound protocol messages (registered on the router);
// a malformed message is dropped.
func (b *Broadcaster) onMessage(m transport.Message) {
	switch m.Type {
	case MsgData:
		var d dataMsg
		if decodeData(m.Payload, &d) == nil {
			b.handleData(d)
		}
	case MsgOrder:
		var o orderMsg
		if decodeOrder(m.Payload, &o) == nil {
			b.handleOrder(o, m.From)
		}
	case MsgAck:
		var a ackMsg
		if decodeAck(m.Payload, &a) == nil {
			b.handleAck(a, m.From)
		}
	case MsgNack:
		var n nackMsg
		if decodeNack(m.Payload, &n) == nil {
			b.handleNack(n, m.From)
		}
	case MsgNewEpoch:
		var ne newEpochMsg
		if decodeNewEpoch(m.Payload, &ne) == nil {
			b.handleNewEpoch(ne, m.From)
		}
	case MsgState:
		var st stateMsg
		if decodeState(m.Payload, &st) == nil {
			b.handleState(st, m.From)
		}
	}
}

// tryDeliver delivers every message whose order is stable (majority-acked)
// and whose predecessors have all been delivered, then prunes the window.
func (b *Broadcaster) tryDeliver() {
	b.deliverMu.Lock()
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.deliverMu.Unlock()
		return
	}
	ready := b.ready[:0]
	var drained []dataEntry
	for {
		seq := b.nextDeliver
		r := b.win.get(seq)
		if r == nil || !r.ordered {
			break
		}
		// Uniform Integrity: a message id is emitted at most once, whatever
		// the sequencers announced.  Should two of them have assigned one id
		// at two sequence numbers (an earlier epoch's ORDER stored here while
		// a takeover swept the payload afresh), the lowest one emits — the
		// cursor reaches it first — and the later ones advance the cursor
		// silently, once stable like any other: every member has passed the
		// lower number by then, so all resolve the duplicate alike.
		first, indexed := b.idx[r.id]
		dup := indexed && first < seq || !indexed && b.staleLocked(r.id)
		if !dup && !b.claimPayloadLocked(r) {
			// (The payload may have been waiting unordered: its record was
			// displaced and re-placed.)  Order-without-data is the one stall
			// the positive-ack flow never clears by itself — see nack.go.
			b.armCheckLocked(seq)
			break
		}
		if bits.OnesCount64(r.voters) < b.majority() {
			break
		}
		b.nextDeliver++
		if dup {
			continue
		}
		if !indexed || first != seq {
			b.idx[r.id] = seq
		}
		b.stats.Delivered++
		ready = append(ready, Delivery{Seq: seq, MsgID: r.id, Payload: r.payload})
		if strings.HasPrefix(r.id, b.idPrefix) && b.inFlight > 0 {
			b.inFlight--
			if b.inFlight == 0 && len(b.sendBuf) > 0 {
				// The pipe just drained with co-travellers buffered behind
				// it: flush them now — the delivery of our previous batch is
				// the batching clock tick, usually well ahead of the
				// window-timer backstop.
				drained = append(drained, b.takeBatchLocked()...)
				b.inFlight = len(drained)
			}
		}
	}
	b.cursor.Store(b.nextDeliver)
	b.pruneLocked()
	b.ready = ready
	b.mu.Unlock()
	for _, d := range ready {
		b.deliveries <- d
	}
	clear(ready) // the scratch must not pin delivered payloads
	b.deliverMu.Unlock()
	if len(drained) > 0 {
		b.mu.Lock() // deliverMu is released: at the sequencer, submitting delivers
		b.submitLocked(drained)
	}
}
