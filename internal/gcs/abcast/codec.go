package abcast

import (
	"encoding/binary"

	"groupsafe/internal/varint"
)

// Binary wire codec of the protocol messages, on the module's varint codec.
//
// Every broadcast crosses the wire as DATA to the sequencer, as an ORDER that
// carries the payload to every member, and as their ACKs, so these three
// message types dominate the send path: each is encoded into a single
// exact-size allocation.  The takeover (NEWEPOCH, STATE) and retransmission
// (NACK) messages reuse their pieces.
//
// Decoding aliases payload bytes into the wire buffer instead of copying:
// wire buffers are never mutated after receipt (the in-memory transport hands
// the same read-only slice to every member, exactly like the sender-side
// sharing that already existed), and the delivery path treats payloads as
// immutable.

// entriesLen is the encoded size of a list of DATA entries.
func entriesLen(entries []dataEntry) int {
	size := varint.UvarintLen(uint64(len(entries)))
	for _, e := range entries {
		size += varint.UvarintLen(uint64(len(e.MsgID))) + len(e.MsgID)
		size += varint.UvarintLen(uint64(len(e.Payload))) + len(e.Payload)
	}
	return size
}

// appendEntries appends a list of DATA entries: each message id and payload.
func appendEntries(buf []byte, entries []dataEntry) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		buf = varint.AppendBytes(varint.AppendString(buf, e.MsgID), e.Payload)
	}
	return buf
}

// readEntries reads what appendEntries wrote, aliasing the payloads.
func readEntries(r *varint.Reader) []dataEntry {
	entries := make([]dataEntry, r.Count())
	for i := range entries {
		entries[i] = dataEntry{MsgID: r.String(), Payload: r.Bytes()}
	}
	return entries
}

// encodeData encodes a batched DATA message.
func encodeData(d dataMsg) []byte {
	return appendEntries(make([]byte, 0, entriesLen(d.Entries)), d.Entries)
}

// decodeData decodes a DATA message, aliasing entry payloads into data.
func decodeData(data []byte, d *dataMsg) error {
	r := varint.NewReader(data)
	d.Entries = readEntries(&r)
	return r.Err()
}

// seqRangeLen is the encoded size of the shared shape of ORDER and ACK
// messages: an epoch, a base sequence number, the message ids of the covered
// range, and the sender's delivery cursor.  The cursor rides as a trailing
// field, so it costs one uvarint on messages the protocol sends anyway:
// members learn what no peer needs any more without any extra message type.
func seqRangeLen(epoch, baseSeq uint64, ids []string, cursor uint64) int {
	size := varint.UvarintLen(epoch) + varint.UvarintLen(baseSeq) + varint.UvarintLen(uint64(len(ids))) + varint.UvarintLen(cursor)
	for _, id := range ids {
		size += varint.UvarintLen(uint64(len(id))) + len(id)
	}
	return size
}

// appendSeqRange appends the shared ORDER/ACK shape to buf.
func appendSeqRange(buf []byte, epoch, baseSeq uint64, ids []string, cursor uint64) []byte {
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, baseSeq)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = varint.AppendString(buf, id)
	}
	return binary.AppendUvarint(buf, cursor)
}

// readSeqRange reads the shared ORDER/ACK shape.
func readSeqRange(r *varint.Reader) (epoch, baseSeq uint64, ids []string, cursor uint64) {
	epoch, baseSeq = r.Uvarint(), r.Uvarint()
	ids = make([]string, r.Count())
	for i := range ids {
		ids[i] = r.String()
	}
	return epoch, baseSeq, ids, r.Uvarint()
}

// appendPayload appends a payload that may be absent: a 1 and the bytes, or
// a 0 when there is none (an empty payload is present, not absent).  ORDER
// entries and STATE slots carry their payloads so.
func appendPayload(buf, p []byte) []byte {
	if p == nil {
		return append(buf, 0)
	}
	return varint.AppendBytes(append(buf, 1), p)
}

// readPayload reads what appendPayload wrote, aliasing the bytes.
func readPayload(r *varint.Reader) []byte {
	if !r.Bool() {
		return nil
	}
	return r.Bytes()
}

// An ORDER is the shared shape followed by one payload per message id, nil
// when the sequencer does not hold it.
func encodeOrder(o orderMsg) []byte {
	size := seqRangeLen(o.Epoch, o.BaseSeq, o.MsgIDs, o.Cursor) + len(o.MsgIDs)
	for i := range o.MsgIDs {
		if p := o.payload(i); p != nil {
			size += varint.UvarintLen(uint64(len(p))) + len(p)
		}
	}
	buf := appendSeqRange(make([]byte, 0, size), o.Epoch, o.BaseSeq, o.MsgIDs, o.Cursor)
	for i := range o.MsgIDs {
		buf = appendPayload(buf, o.payload(i))
	}
	return buf
}

// decodeOrder decodes an ORDER, aliasing its payloads into data.
func decodeOrder(data []byte, o *orderMsg) error {
	r := varint.NewReader(data)
	o.Epoch, o.BaseSeq, o.MsgIDs, o.Cursor = readSeqRange(&r)
	o.Payloads = make([][]byte, len(o.MsgIDs))
	for i := range o.Payloads {
		o.Payloads[i] = readPayload(&r)
	}
	return r.Err()
}

func encodeAck(a ackMsg) []byte {
	size := seqRangeLen(a.Epoch, a.BaseSeq, a.MsgIDs, a.Cursor)
	return appendSeqRange(make([]byte, 0, size), a.Epoch, a.BaseSeq, a.MsgIDs, a.Cursor)
}

func decodeAck(data []byte, a *ackMsg) error {
	r := varint.NewReader(data)
	a.Epoch, a.BaseSeq, a.MsgIDs, a.Cursor = readSeqRange(&r)
	return r.Err()
}

// A NACK is the stalled sequence number and the message id.
func encodeNack(n nackMsg) []byte {
	return varint.AppendString(binary.AppendUvarint(nil, n.Seq), n.MsgID)
}

func decodeNack(data []byte, n *nackMsg) error {
	r := varint.NewReader(data)
	n.Seq, n.MsgID = r.Uvarint(), r.String()
	return r.Err()
}

// A NEWEPOCH is the epoch alone.
func encodeNewEpoch(ne newEpochMsg) []byte { return binary.AppendUvarint(nil, ne.Epoch) }

func decodeNewEpoch(data []byte, ne *newEpochMsg) error {
	r := varint.NewReader(data)
	ne.Epoch = r.Uvarint()
	return r.Err()
}

// A STATE is the epoch, the base, the slots (each a message id, its order
// epoch and its payload as in an ORDER), then the unordered payloads as DATA
// entries.
func encodeState(st stateMsg) []byte {
	buf := binary.AppendUvarint(nil, st.Epoch)
	buf = binary.AppendUvarint(buf, st.Base)
	buf = binary.AppendUvarint(buf, uint64(len(st.Slots)))
	for _, s := range st.Slots {
		buf = binary.AppendUvarint(varint.AppendString(buf, s.MsgID), s.Epoch)
		buf = appendPayload(buf, s.Payload)
	}
	return appendEntries(buf, st.Unordered)
}

// decodeState decodes a STATE, aliasing its payloads into data.
func decodeState(data []byte, st *stateMsg) error {
	r := varint.NewReader(data)
	st.Epoch, st.Base = r.Uvarint(), r.Uvarint()
	st.Slots = make([]stateSlot, r.Count())
	for i := range st.Slots {
		st.Slots[i] = stateSlot{MsgID: r.String(), Epoch: r.Uvarint(), Payload: readPayload(&r)}
	}
	st.Unordered = readEntries(&r)
	return r.Err()
}
