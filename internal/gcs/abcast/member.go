package abcast

import "time"

func (b *Broadcaster) handleOrder(o orderMsg, from string) {
	b.mu.Lock()
	if b.closed || len(o.MsgIDs) == 0 || from != b.sequencerFor(o.Epoch) {
		b.mu.Unlock() // (an ORDER counts as the vote of its epoch's sequencer, nobody else's)
		return
	}
	if o.Epoch < b.minOrderEpoch {
		// Void: a takeover's gather majority has promised to forget this
		// sequencer's assignments.  Epochs in [minOrderEpoch, epoch) stay
		// acceptable: a member that merely suspects the sequencer has raised
		// its epoch but promised nothing, and must keep following a sequencer
		// everyone else still follows.
		b.mu.Unlock()
		return
	}
	// Every epoch change is a takeover, so the floor rises to any accepted
	// ORDER's epoch: its sequencer's gather majority has promised as much.
	b.minOrderEpoch = o.Epoch
	if o.Epoch > b.epoch {
		// A newer sequencer is active; follow it.
		b.epoch = o.Epoch
		b.gathering = false
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
	// One ACK carries the vote for the whole range, and contiguous same-epoch
	// ranges merge into one pending ACK per audience (see sendAck).  For the
	// members that can be waiting on the vote, holding it buys a wider merge
	// only while more ORDERs are known to be imminent — some received payload
	// still lacks an order; otherwise it would stall delivery by the window
	// for nothing.  Under load this collapses the sequencer's ACK fan-in to
	// one inbound message per delivery window.
	ack := ackMsg{Epoch: o.Epoch, BaseSeq: o.BaseSeq, MsgIDs: o.MsgIDs}
	prompt, nPrompt := b.mergeAckLocked(&b.ackPend, ack, len(b.unordered) > 0)
	var lazy [2]ackMsg
	nLazy := 0
	if b.majority() <= 2 && len(b.cfg.Members) > 2 {
		// A third member holds a majority without this vote: it is told when
		// the lazy window lapses, whatever arrives meanwhile.
		lazy, nLazy = b.mergeAckLocked(&b.ackLazy, ack, true)
	}
	b.mu.Unlock()
	for i := 0; i < nPrompt; i++ {
		b.sendAck(prompt[i], false)
	}
	for i := 0; i < nLazy; i++ {
		b.sendAck(lazy[i], true)
	}
	b.tryDeliver()
}

// pendingAck accumulates the votes for contiguous same-epoch ORDER ranges
// into one ACK for one audience: the members a vote is urgent for, or (lazy)
// the rest.  window bounds how long a vote waits in it.
type pendingAck struct {
	lazy   bool
	window time.Duration
	ack    ackMsg
	valid  bool
	timer  *time.Timer
	armed  bool
}

// mergeAckLocked folds ack into p and returns the ACKs to send now (at most
// two: a pending range that ack does not continue, and the merged one unless
// hold is set and it is still below ackMergeBound).  While p holds an ACK its
// window timer bounds the wait.
func (b *Broadcaster) mergeAckLocked(p *pendingAck, ack ackMsg, hold bool) (flush [2]ackMsg, n int) {
	if p.valid && p.ack.Epoch == ack.Epoch && p.ack.BaseSeq+uint64(len(p.ack.MsgIDs)) == ack.BaseSeq {
		p.ack.MsgIDs = append(p.ack.MsgIDs, ack.MsgIDs...)
	} else {
		if out, ok := p.take(); ok {
			flush[n] = out
			n++
		}
		p.ack, p.valid = ack, true
	}
	if !hold || len(p.ack.MsgIDs) >= ackMergeBound {
		flush[n], _ = p.take()
		return flush, n + 1
	}
	if !p.armed {
		p.armed = true
		rearm(&p.timer, p.window, func() { b.flushAck(p) })
	}
	return flush, n
}

// take detaches the pending ACK and disarms its timer.
func (p *pendingAck) take() (ackMsg, bool) {
	if !p.valid {
		return ackMsg{}, false
	}
	ack := p.ack
	p.ack, p.valid = ackMsg{}, false
	if p.armed {
		p.timer.Stop()
		p.armed = false
	}
	return ack, true
}

// flushAck sends p's pending ACK when its window expires.
func (b *Broadcaster) flushAck(p *pendingAck) {
	b.mu.Lock()
	if b.closed || !p.armed {
		b.mu.Unlock()
		return
	}
	ack, have := p.take()
	b.mu.Unlock()
	if have {
		b.sendAck(ack, p.lazy)
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
