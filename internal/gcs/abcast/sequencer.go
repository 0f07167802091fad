package abcast

import (
	"sort"
	"time"

	"groupsafe/internal/gcs/transport"
)

func (b *Broadcaster) handleData(d dataMsg) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	for _, e := range d.Entries {
		b.storePayloadLocked(e.MsgID, e.Payload)
	}
	b.sequenceLocked(d.Entries)
	b.tryDeliver()
}

// sequenceLocked orders payloads this member has just filed — remote DATA and
// its own broadcasts alike — if it is the sequencer.  It is called with mu
// held and releases it.
func (b *Broadcaster) sequenceLocked(entries []dataEntry) {
	if b.closed || b.gathering || b.sequencerFor(b.epoch) != b.cfg.Self {
		b.mu.Unlock()
		return
	}
	if len(b.orderQ) > 0 || !b.orderMu.TryLock() {
		// Behind a backlog, or while a range is being announced: park the
		// batch for the ordering goroutine and return to decoding (or to the
		// client).  Assignment of this batch overlaps the announcement of the
		// previous one, and back-to-back batches coalesce into one wider
		// ORDER range when the loop drains them together.
		b.orderQ = append(b.orderQ, entries...)
		b.mu.Unlock()
		select {
		case b.orderKick <- struct{}{}:
		default:
		}
		return
	}
	// Cut-through: with no backlog and the lane idle, the queue hand-off is a
	// scheduler hop that would be pure added latency.
	order, handoff, rotate := b.assignLocked(entries)
	b.mu.Unlock()
	b.announce(order, handoff, rotate)
	b.orderMu.Unlock()
}

// announce sends what assignLocked produced: the ORDER before the HANDOFF, so
// per-link FIFO guarantees every member — the successor above all — sees this
// epoch's final assignments before the handover.  The caller holds orderMu
// since before the assignment, so no later range overtakes this one.
func (b *Broadcaster) announce(order orderMsg, handoff handoffMsg, rotate bool) {
	if len(order.MsgIDs) > 0 {
		b.sendOrder(order)
	}
	if rotate {
		b.sendAll(transport.Message{Type: MsgHandoff, Payload: encodeHandoff(handoff)})
	}
}

// assignSeqLocked gives id the next sequence number and records the order in
// this sequencer's own window at once — that is the sequencer's vote, which
// the ORDER then carries to the other members — so a duplicate copy of the
// payload (a retransmission) is never assigned twice.
func (b *Broadcaster) assignSeqLocked(order *orderMsg, id string) {
	if len(order.MsgIDs) == 0 {
		*order = orderMsg{Epoch: b.epoch, MinEpoch: b.minOrderEpoch, BaseSeq: b.nextSeq}
	}
	order.MsgIDs = append(order.MsgIDs, id)
	if r := b.win.slot(b.nextSeq); r != nil && b.placeLocked(b.nextSeq, r, id, b.epoch) {
		b.orderLocked(b.nextSeq, r, b.selfBit())
	}
	b.nextSeq++
	b.stats.Ordered++
}

// assignLocked gives one contiguous sequence range to every not-yet-ordered
// payload (a single ORDER covers the whole slice) and, when the rotation
// quota fills, bumps the epoch and prepares the gather-free HANDOFF for the
// next sequencer.
func (b *Broadcaster) assignLocked(entries []dataEntry) (order orderMsg, handoff handoffMsg, rotate bool) {
	for _, e := range entries {
		if _, held := b.unordered[e.MsgID]; held {
			b.assignSeqLocked(&order, e.MsgID)
		}
	}
	if b.cfg.OrderDelay > 0 && len(order.MsgIDs) > 0 {
		// Emulated ordering service cost, per assigned payload.  Slept under
		// mu on purpose: the ordering site is one serial resource, and while
		// it is busy the member's whole protocol engine is busy — exactly the
		// sequencer bottleneck the knob exists to model (cf. DiskSyncDelay,
		// which likewise serialises the forces of one simulated disk).
		time.Sleep(b.cfg.OrderDelay * time.Duration(len(order.MsgIDs)))
	}
	b.epochAssigned += len(order.MsgIDs)
	if b.cfg.RotateEvery > 0 && b.epochAssigned >= b.cfg.RotateEvery && !b.gathering {
		// Advance to the next epoch whose sequencer is alive (as far as the
		// local suspicions know).  If the rotation would land back on us —
		// every other member suspected — stay put and just reset the quota.
		e := b.nextLiveEpochLocked()
		b.epochAssigned = 0
		if b.sequencerFor(e) != b.cfg.Self {
			b.epoch = e
			b.stats.Rotations++
			handoff = handoffMsg{Epoch: e, NextSeq: b.nextSeq, MinEpoch: b.minOrderEpoch}
			rotate = true
		}
	}
	return order, handoff, rotate
}

// nextLiveEpochLocked returns the first epoch after the current one whose
// sequencer is not suspected.
func (b *Broadcaster) nextLiveEpochLocked() uint64 {
	e := b.epoch + 1
	for i := 0; i < len(b.cfg.Members) && b.suspected[b.member[b.sequencerFor(e)]]; i++ {
		e++
	}
	return e
}

// sweepUnorderedLocked orders every payload this member holds that no ORDER
// has named, in id order, as one fresh range: what a sequencer does on taking
// the role over (planned or not).
func (b *Broadcaster) sweepUnorderedLocked() orderMsg {
	ids := make([]string, 0, len(b.unordered))
	for id := range b.unordered {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var fresh orderMsg
	for _, id := range ids {
		b.assignSeqLocked(&fresh, id)
	}
	return fresh
}

// orderLoop is the sequencer's assignment stage behind a backlog: it drains
// queued DATA batches, assigns their ORDER ranges and sends them, while the
// router thread keeps decoding inbound messages.
func (b *Broadcaster) orderLoop() {
	for {
		select {
		case <-b.orderStop:
			return
		case <-b.orderKick:
		}
		for b.drainOrderQ() {
			b.tryDeliver()
		}
	}
}

// drainOrderQ assigns everything queued as one range and announces it; it
// reports whether it ordered anything.
func (b *Broadcaster) drainOrderQ() bool {
	b.orderMu.Lock()
	defer b.orderMu.Unlock()
	b.mu.Lock()
	entries := b.orderQ
	b.orderQ = nil
	if b.closed || len(entries) == 0 || b.gathering || b.sequencerFor(b.epoch) != b.cfg.Self {
		// Lost the sequencer role between enqueue and drain: the queue is
		// dropped.  The payloads stay unordered everywhere, and whoever
		// ordering fell to picks them up — a crash takeover sweeps them from
		// the gather set, a planned successor sweeps its own at handoff or
		// orders them at receipt.
		b.mu.Unlock()
		return false
	}
	order, handoff, rotate := b.assignLocked(entries)
	b.mu.Unlock()
	b.announce(order, handoff, rotate)
	return true
}

// handleHandoff installs a planned sequencer rotation.  The successor adopts
// the handed-over numbering and immediately orders any payloads it holds
// that the outgoing sequencer never assigned: link FIFO guarantees it has
// already processed every ORDER the outgoing sequencer sent, so anything
// still unordered here was unordered, full stop — except for assignments by
// sequencers of *earlier* rotation epochs whose ORDERs are still in flight
// on other links.  Those can produce a duplicate assignment of the same
// message id at two sequence numbers; tryDeliver suppresses the second
// emission, identically at every member.
func (b *Broadcaster) handleHandoff(h handoffMsg) {
	b.orderMu.Lock() // the sweep below is a range like any other
	b.mu.Lock()
	if b.closed || h.Epoch < b.epoch {
		b.mu.Unlock()
		b.orderMu.Unlock()
		return
	}
	if h.Epoch > b.epoch {
		b.epoch = h.Epoch
		b.gathering = false
		b.epochAssigned = 0
		b.stats.Rotations++
	}
	if h.MinEpoch > b.minOrderEpoch {
		b.minOrderEpoch = h.MinEpoch
	}
	var fresh orderMsg
	if b.sequencerFor(b.epoch) == b.cfg.Self && !b.gathering {
		if h.NextSeq > b.nextSeq {
			b.nextSeq = h.NextSeq
		}
		fresh = b.sweepUnorderedLocked()
		b.epochAssigned += len(fresh.MsgIDs)
	}
	b.mu.Unlock()
	if len(fresh.MsgIDs) > 0 {
		b.sendOrder(fresh)
	}
	b.orderMu.Unlock()
	b.tryDeliver()
}
