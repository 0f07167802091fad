package abcast

import "groupsafe/internal/gcs/transport"

// Retransmission.  The positive-ack flow never re-sends a payload and the
// transports are at-most-once, so two in-epoch stalls need a timer:
//
//   - order-without-data: an ORDER that reached this member without the
//     payload it names — the sequencer did not hold it when it announced the
//     order (a takeover re-announcing what it adopted), or a frame carrying
//     it was lost.  The cursor sits on the sequence number and every later
//     delivery queues behind it.  The member asks the group for the payload
//     by id (NACK); any member still holding it re-sends the DATA entry
//     point-to-point.
//   - data-without-order: this member's own DATA never reached a sequencer
//     that orders it — it was lost, or went to a sequencer a takeover has
//     replaced — so nobody will ever order it.  The sender re-sends it to
//     every other member, whichever of them sequences now.
//
// One periodic check, running only while either condition exists, acts on a
// condition that has lasted a full NackDelay — usually the payload or the
// order is just still in flight.  handleData is idempotent, so duplicate
// answers and needless re-sends are harmless.

// nackMsg requests the retransmission of one payload by message id.  Seq is
// the stalled sequence number, carried for observability only — holders
// answer by MsgID.
type nackMsg struct {
	Seq   uint64
	MsgID string
}

// armCheckLocked starts the periodic check unless it is already running: for
// an order-without-data stall of the cursor on stall (0: none), or because the
// payload just numbered will await its order.  Either way the first check
// falls a full NackDelay after the condition was first seen.
func (b *Broadcaster) armCheckLocked(stall uint64) {
	if b.nackArmed {
		return
	}
	b.nackArmed, b.stallSeq, b.retryMark = true, stall, b.localCounter
	rearm(&b.nackTimer, b.cfg.NackDelay, b.checkStalls)
}

// checkStalls NACKs a cursor stall and re-sends to every other member the own
// unordered payloads that were already there at the previous check, and
// re-arms while either exists.
func (b *Broadcaster) checkStalls() {
	b.mu.Lock()
	if b.closed || !b.nackArmed {
		b.mu.Unlock()
		return
	}
	var nack nackMsg
	stall := uint64(0)
	if r := b.win.get(b.nextDeliver); r != nil && r.ordered && r.payload == nil {
		if _, waiting := b.unordered[r.id]; !waiting {
			stall = b.nextDeliver
			if stall == b.stallSeq {
				nack = nackMsg{Seq: stall, MsgID: r.id}
				b.stats.NacksSent++
			}
		}
	}
	b.stallSeq = stall

	var resend []dataEntry
	own := false
	sequencing := b.sequencerFor(b.epoch) == b.cfg.Self
	for id, p := range b.unordered {
		prefix, n, ok := splitID(id)
		if !ok || prefix != b.idPrefix {
			continue
		}
		own = true
		if n <= b.retryMark && !sequencing { // (a sequencer orders its own as it files them)
			resend = append(resend, dataEntry{MsgID: id, Payload: p})
		}
	}
	b.retryMark = b.localCounter
	b.stats.Retransmits += uint64(len(resend))

	// Re-arm under the lock: a lost NACK, answer or re-send must be retried.
	b.nackArmed = stall != 0 || own
	if b.nackArmed {
		b.nackTimer.Reset(b.cfg.NackDelay)
	}
	b.mu.Unlock()

	if nack.MsgID != "" {
		b.sendAll(transport.Message{Type: MsgNack, Payload: encodeNack(nack)})
	}
	if len(resend) > 0 {
		b.sendAll(transport.Message{Type: MsgData, Payload: encodeData(dataMsg{Entries: resend})}) // retried next period
	}
}

// handleNack answers a retransmission request when this member holds the
// payload: a normal DATA message with the single entry, point-to-point to the
// requester.  A request for a payload that has left the window is ignored.
func (b *Broadcaster) handleNack(n nackMsg, from string) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	payload, ok := b.unordered[n.MsgID]
	if seq, ordered := b.idx[n.MsgID]; ordered {
		if r := b.win.get(seq); r != nil && r.id == n.MsgID && r.payload != nil {
			payload, ok = r.payload, true
		}
	}
	if ok {
		b.stats.Retransmits++
	}
	b.mu.Unlock()
	if !ok {
		return
	}
	b.msgsSent.Add(1)
	_ = b.router.Send(from, transport.Message{ // a lost answer is re-requested
		Type:    MsgData,
		Payload: encodeData(dataMsg{Entries: []dataEntry{{MsgID: n.MsgID, Payload: payload}}}),
	})
}
