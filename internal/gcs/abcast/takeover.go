package abcast

import (
	"sort"

	"groupsafe/internal/gcs/transport"
)

// stateSlot is one window record as shipped to a takeover: the order this
// member stores for a sequence number (MsgID "" when it stores none) and the
// payload if it holds it.
type stateSlot struct {
	MsgID   string
	Epoch   uint64
	Payload []byte
}

// stateMsg is a member's answer to NEWEPOCH: its window.  Slots[i] describes
// sequence number Base+i; everything below Base has been delivered by every
// member this one does not suspect, so the message is bounded by the lag of
// the slowest live member, not by the history.
type stateMsg struct {
	Epoch     uint64
	Base      uint64
	Slots     []stateSlot
	Unordered []dataEntry
}

// Suspect informs the broadcaster that peer is believed crashed (typically
// wired to the failure detector).  The peer stops holding the window back; if
// it is the current sequencer, a new epoch is started.
func (b *Broadcaster) Suspect(peer string) {
	b.mu.Lock()
	i, ok := b.member[peer]
	if b.closed || !ok {
		b.mu.Unlock()
		return
	}
	b.suspected[i] = true
	if b.sequencerFor(b.epoch) != peer {
		b.mu.Unlock()
		b.tryDeliver() // prunes what only the suspected peer held back
		return
	}
	e := b.nextLiveEpochLocked()
	b.stats.EpochJumps++
	b.epoch = e
	iAmNewSequencer := b.sequencerFor(e) == b.cfg.Self
	if iAmNewSequencer {
		// Crash takeover voids every older-epoch ORDER still in flight: the
		// gather majority's states promise exactly this (otherwise a stale
		// sequencer's assignment could still reach an ack-majority and split
		// delivery from the adopted order).  Our own state opens the gather,
		// so our promise starts here; every other member makes it when it
		// answers NEWEPOCH — not when it merely suspects, or one member's
		// false suspicion would make it deaf to a sequencer everyone else
		// still follows.  The floor moves only with a takeover: here, on
		// answering NEWEPOCH, and on accepting the new sequencer's ORDERs.
		b.minOrderEpoch = e
		b.gathering = true
		b.gatherEpoch = e
		b.gatherFrom = map[string]stateMsg{b.cfg.Self: b.snapshotStateLocked(e)}
	}
	b.mu.Unlock()

	if iAmNewSequencer {
		b.sendAll(transport.Message{Type: MsgNewEpoch, Payload: encodeNewEpoch(newEpochMsg{Epoch: e})})
		// A single-member group gathers only from itself.
		b.finishGather()
	}
}

// Unsuspect clears a suspicion (e.g. a false positive of the failure
// detector).
func (b *Broadcaster) Unsuspect(peer string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i, ok := b.member[peer]; ok {
		b.suspected[i] = false
	}
}

func (b *Broadcaster) snapshotStateLocked(epoch uint64) stateMsg {
	st := stateMsg{Epoch: epoch, Base: b.win.base, Slots: make([]stateSlot, b.win.top-b.win.base)}
	for i := range st.Slots {
		if r := b.win.get(b.win.base + uint64(i)); r.ordered {
			st.Slots[i] = stateSlot{MsgID: r.id, Epoch: r.epoch, Payload: r.payload}
		}
	}
	for id, p := range b.unordered {
		st.Unordered = append(st.Unordered, dataEntry{MsgID: id, Payload: p})
	}
	return st
}

func (b *Broadcaster) handleNewEpoch(ne newEpochMsg, from string) {
	b.mu.Lock()
	if b.closed || ne.Epoch < b.epoch {
		b.mu.Unlock()
		return
	}
	if ne.Epoch > b.epoch {
		b.stats.EpochJumps++
	}
	b.epoch = ne.Epoch
	// Replying STATE is the promise that makes the gather binding: from here
	// on, ORDERs below the takeover epoch are void at this member.
	if ne.Epoch > b.minOrderEpoch {
		b.minOrderEpoch = ne.Epoch
	}
	b.gathering = false
	reply := b.snapshotStateLocked(ne.Epoch)
	b.mu.Unlock()
	_ = b.router.Send(from, transport.Message{Type: MsgState, Payload: encodeState(reply)}) // a lost reply is one vote fewer
}

func (b *Broadcaster) handleState(st stateMsg, from string) {
	b.mu.Lock()
	if b.closed || !b.gathering || st.Epoch != b.gatherEpoch {
		b.mu.Unlock()
		return
	}
	b.gatherFrom[from] = st
	b.mu.Unlock()
	b.finishGather()
}

// finishGather completes sequencer takeover once a majority of state replies
// (including our own) has been collected: for every sequence number still in
// some window it adopts the order with the highest epoch, re-announces the
// adopted orders under the new epoch, and orders whatever is left unordered.
func (b *Broadcaster) finishGather() {
	b.orderMu.Lock() // the re-announcement goes out as one range: nothing assigned after it may overtake it
	b.mu.Lock()
	if !b.gathering || len(b.gatherFrom) < b.majority() {
		b.mu.Unlock()
		b.orderMu.Unlock()
		return
	}
	b.gathering = false

	adopted := make(map[uint64]stateSlot)
	next := max(b.win.base, b.nextDeliver) // numbering resumes above everything any window has seen
	for _, st := range b.gatherFrom {
		next = max(next, st.Base)
		for i, s := range st.Slots {
			seq := st.Base + uint64(i)
			if s.MsgID == "" {
				continue
			}
			next = max(next, seq+1)
			if seq < b.win.base {
				continue // delivered by every member we do not suspect
			}
			if s.Payload != nil {
				b.storePayloadLocked(s.MsgID, s.Payload)
			}
			if cur, ok := adopted[seq]; !ok || s.Epoch > cur.Epoch {
				adopted[seq] = s
			}
		}
		for _, e := range st.Unordered {
			b.storePayloadLocked(e.MsgID, e.Payload)
		}
	}
	b.gatherFrom = nil
	b.nextSeq = next

	// Re-announce adopted orders under the new epoch, coalescing contiguous
	// sequence runs into batched ORDER messages, then order any payloads
	// that still lack a sequence number as one fresh batch.
	seqs := make([]uint64, 0, len(adopted))
	for seq := range adopted {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	var reannounce []orderMsg
	for _, seq := range seqs {
		s := adopted[seq]
		var payload []byte
		if r := b.win.slot(seq); r != nil && b.placeLocked(seq, r, s.MsgID, b.epoch) {
			b.orderLocked(seq, r, b.selfBit())
			payload = r.payload
		}
		if n := len(reannounce); n > 0 && reannounce[n-1].BaseSeq+uint64(len(reannounce[n-1].MsgIDs)) == seq {
			reannounce[n-1].MsgIDs = append(reannounce[n-1].MsgIDs, s.MsgID)
			reannounce[n-1].Payloads = append(reannounce[n-1].Payloads, payload)
			continue
		}
		reannounce = append(reannounce, orderMsg{Epoch: b.epoch, BaseSeq: seq, MsgIDs: []string{s.MsgID}, Payloads: [][]byte{payload}})
	}
	fresh := b.sweepUnorderedLocked()
	b.mu.Unlock()
	for _, o := range reannounce {
		b.sendOrder(o)
	}
	b.sendOrder(fresh)
	b.orderMu.Unlock()
	b.tryDeliver()
}
