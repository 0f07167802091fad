package abcast

import (
	"strconv"
	"time"
)

// Broadcast A-broadcasts a payload and returns the assigned message id.  A
// sender with nothing in flight sends the payload immediately.  Otherwise the
// payload may travel in a multi-payload DATA message: it is sent once the
// batch fills, the sender's previous in-flight batch delivers (the drain
// clock), or the EWMA-derived deadline backstop elapses, whichever comes
// first.
func (b *Broadcaster) Broadcast(payload []byte) (string, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return "", ErrClosed
	}
	b.localCounter++
	// One allocation (the string itself) instead of fmt.Sprintf's boxing.
	b.idBuf = strconv.AppendUint(append(b.idBuf[:0], b.idPrefix...), b.localCounter, 10)
	msgID := string(b.idBuf)
	b.stats.Broadcast++
	b.armCheckLocked(0)

	if b.inFlight == 0 && len(b.sendBuf) == 0 {
		// Delivery-clocked send: none of our payloads are between send and
		// self-delivery, so there is no later event for this one to batch
		// behind — any wait would be pure added latency (and in a closed loop
		// the wait would feed back into the measured arrival gap, inflating
		// the next wait).  Send the lone payload now; arrivals while it is in
		// flight ride behind it and flush when its delivery drains the pipe.
		b.inFlight++
		b.submitLocked([]dataEntry{{MsgID: msgID, Payload: payload}})
		return msgID, nil
	}

	// Only the buffering path samples the clock: the EWMA sets nothing but
	// the backstop deadline, so keeping time.Now off the immediate path costs
	// accuracy only where accuracy is not consumed.
	wait := b.adaptiveWaitLocked()
	b.sendBuf = append(b.sendBuf, dataEntry{MsgID: msgID, Payload: payload})
	if len(b.sendBuf) >= maxBatch {
		batch := b.takeBatchLocked()
		b.inFlight += len(batch)
		b.submitLocked(batch)
		return msgID, nil
	}
	if len(b.sendBuf) == 1 {
		// Deadline semantics: the window is armed once, when the batch opens,
		// so the first payload's added latency is bounded by it.
		b.flushArmed = true
		rearm(&b.flushTimer, wait, b.flushBatch)
	}
	b.mu.Unlock()
	return msgID, nil
}

// submitLocked hands a batch of this member's own payloads to the group; it
// is called with mu held and releases it.  The payloads are filed locally, in
// the caller's critical section, and the sequencer this member follows gets
// one DATA message — the sequencer of the epoch floor, not of the epoch: a
// suspicion alone raises the epoch but changes whose ORDERs are accepted only
// with a takeover.  At the sequencer the batch takes the same assignment path
// as remote DATA and leaves in the ORDER; should the DATA reach a member that
// does not order it, checkStalls re-sends it to everybody.
func (b *Broadcaster) submitLocked(batch []dataEntry) {
	b.dataBatches.Add(1)
	if !b.closed {
		for _, e := range batch {
			b.storePayloadLocked(e.MsgID, e.Payload)
		}
	}
	sequencer := b.sequencerFor(b.minOrderEpoch)
	b.mu.Unlock()
	if sequencer != b.cfg.Self {
		b.sendData(sequencer, batch)
	}
	b.mu.Lock()
	b.sequenceLocked(batch)
	b.tryDeliver() // a single-member group is its own majority
}

// adaptiveWaitLocked updates the sender's inter-arrival EWMA with the gap
// since the previous buffered Broadcast and derives the deadline backstop for
// a buffered payload: the expected time for the remaining batch slots to
// fill, floored at minFlushWait and capped at delayCap.  The backstop only
// matters when the drain clock stalls (our in-flight batch is stuck behind
// loss or a sequencer change); in the common case delivery flushes the buffer
// first.  A gap EWMA at or above delayCap (or no history yet) means the
// sender is idle and gets the minimum window.
func (b *Broadcaster) adaptiveWaitLocked() time.Duration {
	now := time.Now()
	if !b.lastSendAt.IsZero() {
		gap := min(now.Sub(b.lastSendAt), delayCap+1) // one idle gap is enough to mean idle
		if b.sendGapEWMA == 0 || gap >= b.sendGapEWMA {
			// Fast up: one long gap flips the sender back to idle-flush.
			b.sendGapEWMA = (b.sendGapEWMA + gap) / 2
		} else {
			// Faster down: a burst engages batching within a few arrivals.
			b.sendGapEWMA = gap + (b.sendGapEWMA-gap)/4
		}
	}
	b.lastSendAt = now
	if b.sendGapEWMA == 0 || b.sendGapEWMA >= delayCap {
		return minFlushWait
	}
	wait := b.sendGapEWMA * time.Duration(maxBatch-len(b.sendBuf)-1)
	return min(max(wait, minFlushWait), delayCap)
}

// rearm (re)arms a one-shot timer that is reused across firings (Reset
// instead of a fresh time.AfterFunc), which keeps the runtime timer
// allocation off the hot paths that arm it.
func rearm(t **time.Timer, d time.Duration, f func()) {
	if *t == nil {
		*t = time.AfterFunc(d, f)
	} else {
		(*t).Reset(d)
	}
}

// takeBatchLocked detaches the pending batch and disarms the flush timer.
func (b *Broadcaster) takeBatchLocked() []dataEntry {
	batch := b.sendBuf
	b.sendBuf = nil
	if b.flushArmed {
		b.flushTimer.Stop()
		b.flushArmed = false
	}
	return batch
}

// flushBatch sends a partial batch whose co-traveller window expired.  (A
// stale fire — the timer lapsing just as the batch it was armed for closes
// and a new one opens — at worst flushes the new batch early, which is
// harmless.)
func (b *Broadcaster) flushBatch() {
	b.mu.Lock()
	if b.closed || !b.flushArmed {
		b.mu.Unlock()
		return
	}
	batch := b.takeBatchLocked()
	b.inFlight += len(batch)
	b.submitLocked(batch)
}
