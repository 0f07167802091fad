package abcast

import "sort"

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
	order := b.assignLocked(entries)
	b.mu.Unlock()
	b.sendOrder(order)
	b.orderMu.Unlock()
}

// assignSeqLocked gives id the next sequence number and records the order in
// this sequencer's own window at once — that is the sequencer's vote, which
// the ORDER then carries to the other members with the payload — so a
// duplicate copy of the payload (a retransmission) is never assigned twice.
func (b *Broadcaster) assignSeqLocked(order *orderMsg, id string, payload []byte) {
	if len(order.MsgIDs) == 0 {
		*order = orderMsg{Epoch: b.epoch, BaseSeq: b.nextSeq}
	}
	order.MsgIDs = append(order.MsgIDs, id)
	order.Payloads = append(order.Payloads, payload)
	if r := b.win.slot(b.nextSeq); r != nil && b.placeLocked(b.nextSeq, r, id, b.epoch) {
		b.orderLocked(b.nextSeq, r, b.selfBit())
	}
	b.nextSeq++
	b.stats.Ordered++
}

// assignLocked gives one contiguous sequence range to every not-yet-ordered
// payload: a single ORDER covers the whole slice.
func (b *Broadcaster) assignLocked(entries []dataEntry) (order orderMsg) {
	for _, e := range entries {
		if payload, held := b.unordered[e.MsgID]; held {
			b.assignSeqLocked(&order, e.MsgID, payload)
		}
	}
	return order
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
// has named, in id order, as one fresh range: the last step of a takeover.
func (b *Broadcaster) sweepUnorderedLocked() orderMsg {
	ids := make([]string, 0, len(b.unordered))
	for id := range b.unordered {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var fresh orderMsg
	for _, id := range ids {
		b.assignSeqLocked(&fresh, id, b.unordered[id])
	}
	return fresh
}

// orderLoop is the sequencer's assignment stage behind a backlog: it drains
// queued DATA batches, assigns their ORDER ranges and sends them, while the
// receiving threads keep decoding inbound messages.
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
		// dropped.  The payloads stay with their senders, who hand them to
		// the next sequencer in their STATE or re-send them after NackDelay.
		b.mu.Unlock()
		return false
	}
	order := b.assignLocked(entries)
	b.mu.Unlock()
	b.sendOrder(order)
	return true
}
