package abcast

import (
	"strconv"
	"strings"
)

// The window is the member's whole memory of the total order: one record per
// sequence number in [base, top), addressed by seq-base in a ring.  A record
// is dropped once every member that is not suspected has advertised a
// delivery cursor above it (the stability watermark, see pruneLocked), so the
// retained state — and the STATE message a takeover gathers — is bounded by
// the lag of the slowest live member instead of growing with the history.
// Anything that names a sequence number below base is ignored.

// record is everything a member knows about one sequence number.
type record struct {
	id      string // message id placed here by an ORDER or, ahead of it, an ACK; "" = nothing known
	epoch   uint64 // highest epoch that placed id here
	payload []byte // nil until the DATA arrives
	voters  uint64 // bitmask over member indices known to have stored (seq, id)
	ordered bool   // an ORDER (not only ACKs) placed id here
}

// maxWindow bounds the span of the ring: a sanity bound, not a tuning knob
// (live members stay orders of magnitude closer together).  A sequence number
// past it is ignored like one below the window, and a member that has fallen
// half of it behind no longer holds the window back (see pruneLocked), so a
// silent, never-suspected crash cannot wedge the group.
const maxWindow = 1 << 20

type window struct {
	base uint64   // lowest retained sequence number
	top  uint64   // one past the highest sequence number holding a record
	recs []record // ring: seq lives at recs[seq&(len-1)]; len is a power of two
}

// minRing is the ring's initial and smallest size.
const minRing = 1024

func newWindow() window {
	return window{base: 1, top: 1, recs: make([]record, minRing)}
}

// resize moves the retained records into a ring of n slots (a power of two
// no smaller than the span).
func (w *window) resize(n uint64) {
	ring := make([]record, n)
	for s := w.base; s < w.top; s++ {
		ring[s&(n-1)] = w.recs[s&uint64(len(w.recs)-1)]
	}
	w.recs = ring
}

// get returns the record of seq, or nil when none is retained.
func (w *window) get(seq uint64) *record {
	if seq < w.base || seq >= w.top {
		return nil
	}
	return &w.recs[seq&uint64(len(w.recs)-1)]
}

// slot returns the record of seq, extending the window up to it; nil when seq
// lies below the window or beyond maxWindow.  The pointer is valid until the
// next slot call (which may grow the ring).
func (w *window) slot(seq uint64) *record {
	if seq < w.base || seq-w.base >= maxWindow {
		return nil
	}
	if n := uint64(len(w.recs)); seq-w.base >= n {
		for seq-w.base >= n {
			n *= 2
		}
		w.resize(n)
	}
	if seq >= w.top {
		w.top = seq + 1
	}
	return &w.recs[seq&uint64(len(w.recs)-1)]
}

// senderLog remembers, per sender incarnation, which message counters have
// left the window, so that a late duplicate DATA for a pruned message is
// recognised instead of being ordered a second time.  Senders number their
// messages consecutively and the sequencer orders them FIFO, so the set is a
// watermark plus the few counters ordered ahead of a gap.
type senderLog struct {
	low   uint64              // every counter <= low has left the window
	above map[uint64]struct{} // counters > low that have left the window
}

// splitID splits a message id "sender/incarnation/counter" into the sender
// prefix (including the trailing slash) and the counter.
func splitID(id string) (prefix string, n uint64, ok bool) {
	i := strings.LastIndexByte(id, '/')
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.ParseUint(id[i+1:], 10, 64)
	return id[:i+1], n, err == nil
}

// staleLocked reports whether id was ordered at a sequence number that has
// since left the window.
func (b *Broadcaster) staleLocked(id string) bool {
	prefix, n, ok := splitID(id)
	if !ok {
		return false
	}
	l := b.pruned[prefix]
	if l == nil {
		return false
	}
	if n <= l.low {
		return true
	}
	_, ok = l.above[n]
	return ok
}

func (b *Broadcaster) logPrunedLocked(id string) {
	prefix, n, ok := splitID(id)
	if !ok {
		return
	}
	l := b.pruned[prefix]
	if l == nil {
		l = &senderLog{}
		b.pruned[prefix] = l
	}
	switch {
	case n <= l.low:
	case n == l.low+1:
		l.low = n
		for len(l.above) > 0 {
			if _, ok := l.above[l.low+1]; !ok {
				break
			}
			l.low++
			delete(l.above, l.low)
		}
	default:
		if l.above == nil {
			l.above = make(map[uint64]struct{})
		}
		l.above[n] = struct{}{}
	}
}

// placeLocked points the record of seq at (id, epoch) on behalf of an ORDER
// or an ACK.  The same id keeps its votes (a takeover re-announces adopted
// orders under its own epoch); a different id displaces the current one only
// from an epoch at least as high, and starts with no votes.  It reports
// whether the record now names id.
func (b *Broadcaster) placeLocked(seq uint64, r *record, id string, epoch uint64) bool {
	if r.id == id {
		if epoch > r.epoch {
			r.epoch = epoch
		}
		return true
	}
	if r.id != "" {
		if epoch < r.epoch {
			return false
		}
		// The displaced message is unordered again: whoever sequences next
		// sweeps it into a fresh assignment.
		if r.ordered && b.idx[r.id] == seq {
			delete(b.idx, r.id)
		}
		if r.payload != nil {
			b.storePayloadLocked(r.id, r.payload)
		}
	}
	*r = record{id: id, epoch: epoch}
	return true
}

// orderLocked marks the record of seq as ordered: it enters the id index (the
// lowest sequence number wins should two sequencers have assigned an id)
// and claims the payload if the DATA arrived first.  votes are the members
// this proves to hold (seq, id): this one, and the sequencer of an ORDER.
func (b *Broadcaster) orderLocked(seq uint64, r *record, votes uint64) {
	r.ordered = true
	r.voters |= votes
	if first, ok := b.idx[r.id]; !ok || seq < first {
		b.idx[r.id] = seq
	}
	b.claimPayloadLocked(r)
}

// claimPayloadLocked moves the payload of r's id out of the unordered set into
// r and reports whether r holds its payload.
func (b *Broadcaster) claimPayloadLocked(r *record) bool {
	if r.payload == nil {
		if p, ok := b.unordered[r.id]; ok {
			r.payload = p
			delete(b.unordered, r.id)
		}
	}
	return r.payload != nil
}

// storePayloadLocked files a received payload: into its record when the id is
// ordered in the window, into the unordered set otherwise.  A payload whose
// id already left the window is dropped — it was delivered everywhere.
func (b *Broadcaster) storePayloadLocked(id string, payload []byte) {
	if seq, ok := b.idx[id]; ok {
		if r := b.win.get(seq); r != nil && r.id == id && r.payload == nil {
			r.payload = payload
		}
		return
	}
	if _, ok := b.unordered[id]; ok || b.staleLocked(id) {
		return
	}
	b.unordered[id] = payload
}

// pruneLocked drops every record below the stability watermark: the lowest
// delivery cursor among this member and the members it does not suspect.  A
// suspected member holds nothing back, and neither does one that trails the
// top of the window by half of maxWindow; if either is alive after all it
// rejoins through state transfer and SkipTo, as a recovering process must
// anyway.
func (b *Broadcaster) pruneLocked() {
	w := &b.win
	low := b.nextDeliver
	for i := range b.cursors {
		if c := b.cursors[i].Load(); i != b.self && !b.suspected[i] && c < low {
			low = c
		}
	}
	if w.top > maxWindow/2 && low < w.top-maxWindow/2 {
		low = min(w.top-maxWindow/2, b.nextDeliver)
	}
	for ; w.base < low && w.base < w.top; w.base++ {
		r := &w.recs[w.base&uint64(len(w.recs)-1)]
		if r.ordered {
			if b.idx[r.id] == w.base {
				delete(b.idx, r.id)
			}
			b.logPrunedLocked(r.id)
		}
		*r = record{}
	}
	if w.base < low {
		w.base, w.top = low, low
	}
	// A ring grown for a laggard (or for the history a restarted member saw
	// fly by before its state transfer) is given back once the span is small.
	n := uint64(len(w.recs))
	for n > minRing && w.top-w.base < n/8 {
		n /= 2
	}
	if n < uint64(len(w.recs)) {
		w.resize(n)
	}
}
