package abcast

func (b *Broadcaster) handleOrder(o orderMsg, from string) {
	b.mu.Lock()
	if b.closed || len(o.MsgIDs) == 0 || from != b.sequencerFor(o.Epoch) {
		b.mu.Unlock() // (an ORDER counts as the vote of its epoch's sequencer, nobody else's)
		return
	}
	if o.Epoch < b.minOrderEpoch {
		// Void: a crash takeover's gather majority has promised to forget
		// this sequencer's assignments.  Epochs in [minOrderEpoch, epoch)
		// stay acceptable — they are live planned-rotation history.
		b.mu.Unlock()
		return
	}
	if o.MinEpoch > b.minOrderEpoch {
		b.minOrderEpoch = o.MinEpoch
		if o.MinEpoch > o.Epoch {
			// Malformed (floor above the sender's own epoch); drop.
			b.mu.Unlock()
			return
		}
	}
	if o.Epoch > b.epoch {
		// A newer sequencer is active; follow it.
		b.epoch = o.Epoch
		b.gathering = false
		b.epochAssigned = 0
	}
	b.noteCursorLocked(from, o.Cursor)
	if o.BaseSeq+uint64(len(o.MsgIDs)) <= b.win.base {
		// Wholly below the window: delivered everywhere, nothing to store or
		// to acknowledge.
		b.mu.Unlock()
		b.tryDeliver()
		return
	}
	// Storing the assignment is this member's vote — cast after the floor
	// check above, so before any promise — and the ORDER is the sequencer's.
	votes := b.selfBit() | 1<<uint(b.member[from])
	for i, id := range o.MsgIDs {
		seq := o.BaseSeq + uint64(i)
		if r := b.win.slot(seq); r != nil && b.placeLocked(seq, r, id, o.Epoch) {
			b.orderLocked(seq, r, votes)
		}
	}
	// One ACK carries the vote for the whole range to the other members;
	// contiguous same-epoch ranges merge into one pending ACK, sent when the
	// window lapses, adjacency breaks, the merge grows past bound, or Close.
	// Under load this collapses the sequencer's ACK fan-in to one inbound
	// message per delivery window.
	flush, nFlush := b.mergeAckLocked(ackMsg{Epoch: o.Epoch, BaseSeq: o.BaseSeq, MsgIDs: o.MsgIDs})
	b.mu.Unlock()
	for i := 0; i < nFlush; i++ {
		b.sendAck(flush[i])
	}
	b.tryDeliver()
}

// mergeAckLocked folds ack into the pending merged ACK and returns the ACKs
// to send now (at most two: a displaced non-contiguous pend plus the merged
// one).  The merge flushes immediately unless more ORDERs are known to be
// imminent — some received payload still lacks an order — because only then
// does holding the ACK buy a wider merge; otherwise waiting would stall
// delivery by the window for nothing.  While holding, the window timer
// bounds the wait.
func (b *Broadcaster) mergeAckLocked(ack ackMsg) (flush [2]ackMsg, n int) {
	if b.ackPendValid && b.ackPend.Epoch == ack.Epoch && b.ackPend.BaseSeq+uint64(len(b.ackPend.MsgIDs)) == ack.BaseSeq {
		b.ackPend.MsgIDs = append(b.ackPend.MsgIDs, ack.MsgIDs...)
	} else {
		if out, ok := b.takeAckLocked(); ok {
			flush[n] = out
			n++
		}
		b.ackPend = ack
		b.ackPendValid = true
	}

	if len(b.unordered) == 0 || len(b.ackPend.MsgIDs) >= ackMergeBound {
		// Every payload held already has its order, so no follow-up ORDER is
		// imminent and holding the ACK would stall delivery by the window for
		// no merge gain.
		if out, ok := b.takeAckLocked(); ok {
			flush[n] = out
			n++
		}
		return flush, n
	}

	if !b.ackArmed {
		b.ackArmed = true
		rearm(&b.ackTimer, ackWindow, b.flushAck)
	}
	return flush, n
}

// takeAckLocked detaches the pending merged ACK and disarms its timer.
func (b *Broadcaster) takeAckLocked() (ackMsg, bool) {
	if !b.ackPendValid {
		return ackMsg{}, false
	}
	ack := b.ackPend
	b.ackPend = ackMsg{}
	b.ackPendValid = false
	if b.ackArmed {
		b.ackTimer.Stop()
		b.ackArmed = false
	}
	return ack, true
}

// flushAck sends the pending merged ACK when its window expires.
func (b *Broadcaster) flushAck() {
	b.mu.Lock()
	if b.closed || !b.ackArmed {
		b.mu.Unlock()
		return
	}
	ack, have := b.takeAckLocked()
	b.mu.Unlock()
	if have {
		b.sendAck(ack)
	}
}

func (b *Broadcaster) handleAck(a ackMsg, from string) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.noteCursorLocked(from, a.Cursor)
	if i, ok := b.member[from]; ok {
		bit := uint64(1) << uint(i)
		for k, id := range a.MsgIDs {
			seq := a.BaseSeq + uint64(k)
			if r := b.win.slot(seq); r != nil && b.placeLocked(seq, r, id, a.Epoch) {
				r.voters |= bit
			}
		}
	}
	b.mu.Unlock()
	b.tryDeliver()
}
