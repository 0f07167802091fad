package abcast

import (
	"encoding/binary"
	"errors"
)

// Binary wire codec for the hot-path protocol messages (DATA, ORDER, ACK).
//
// Every broadcast crosses the wire as DATA to the sequencer, as an ORDER that
// carries the payload to every member, and as their ACKs, so these three
// message types dominate the send path.  They are encoded with a compact
// varint format into a single exact-size allocation — replacing gob, whose
// per-message encoder, type descriptors and reflection used to dominate the
// allocation profile.  The cold takeover messages (NEWEPOCH, STATE) keep the
// gob encoding: they are exchanged a handful of times per sequencer failure.
//
// Decoding aliases payload bytes into the wire buffer instead of copying:
// wire buffers are never mutated after receipt (the in-memory transport hands
// the same read-only slice to every member, exactly like the sender-side
// sharing that already existed), and the delivery path treats payloads as
// immutable.

var errBadWire = errors.New("abcast: malformed wire message")

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// encodeData encodes a batched DATA message.
func encodeData(d dataMsg) []byte {
	size := uvarintLen(uint64(len(d.Entries)))
	for _, e := range d.Entries {
		size += uvarintLen(uint64(len(e.MsgID))) + len(e.MsgID)
		size += uvarintLen(uint64(len(e.Payload))) + len(e.Payload)
	}
	buf := make([]byte, 0, size)
	buf = binary.AppendUvarint(buf, uint64(len(d.Entries)))
	for _, e := range d.Entries {
		buf = binary.AppendUvarint(buf, uint64(len(e.MsgID)))
		buf = append(buf, e.MsgID...)
		buf = binary.AppendUvarint(buf, uint64(len(e.Payload)))
		buf = append(buf, e.Payload...)
	}
	return buf
}

// wireReader decodes the uvarint-framed fields of a message in order.  The
// first malformed field latches bad and every later read returns zero, so a
// decoder checks once, at the end.  Byte fields alias the wire buffer.
type wireReader struct {
	data []byte
	bad  bool
}

func (r *wireReader) uvarint() uint64 {
	v, w := binary.Uvarint(r.data)
	if w <= 0 {
		r.bad, r.data = true, nil
		return 0
	}
	r.data = r.data[w:]
	return v
}

// bytes reads a length followed by that many bytes; count reads the length
// of a list, which cannot exceed the bytes left.
func (r *wireReader) bytes() []byte {
	n := r.count()
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *wireReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.data)) {
		r.bad, r.data = true, nil
		return 0
	}
	return int(n)
}

func (r *wireReader) err() error {
	if r.bad {
		return errBadWire
	}
	return nil
}

// decodeData decodes a DATA message, aliasing entry payloads into data.
func decodeData(data []byte, d *dataMsg) error {
	r := wireReader{data: data}
	d.Entries = make([]dataEntry, r.count())
	for i := range d.Entries {
		d.Entries[i] = dataEntry{MsgID: string(r.bytes()), Payload: r.bytes()}
	}
	return r.err()
}

// seqRangeLen is the encoded size of the shared shape of ORDER and ACK
// messages: an epoch, a base sequence number, the message ids of the covered
// range, and the sender's delivery cursor.  The cursor rides as a trailing
// field, so it costs one uvarint on messages the protocol sends anyway:
// members learn what no peer needs any more without any extra message type.
func seqRangeLen(epoch, baseSeq uint64, ids []string, cursor uint64) int {
	size := uvarintLen(epoch) + uvarintLen(baseSeq) + uvarintLen(uint64(len(ids))) + uvarintLen(cursor)
	for _, id := range ids {
		size += uvarintLen(uint64(len(id))) + len(id)
	}
	return size
}

// appendSeqRange appends the shared ORDER/ACK shape to buf.
func appendSeqRange(buf []byte, epoch, baseSeq uint64, ids []string, cursor uint64) []byte {
	buf = binary.AppendUvarint(buf, epoch)
	buf = binary.AppendUvarint(buf, baseSeq)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(len(id)))
		buf = append(buf, id...)
	}
	return binary.AppendUvarint(buf, cursor)
}

// seqRange reads the shared ORDER/ACK shape.
func (r *wireReader) seqRange() (epoch, baseSeq uint64, ids []string, cursor uint64) {
	epoch, baseSeq = r.uvarint(), r.uvarint()
	ids = make([]string, r.count())
	for i := range ids {
		ids[i] = string(r.bytes())
	}
	return epoch, baseSeq, ids, r.uvarint()
}

// An ORDER is the shared shape followed by one entry per message id: its
// payload as 1 and the bytes, or 0 when the sequencer does not hold it (an
// empty payload is present, not absent).
const (
	payloadAbsent  = 0
	payloadPresent = 1
)

func encodeOrder(o orderMsg) []byte {
	size := seqRangeLen(o.Epoch, o.BaseSeq, o.MsgIDs, o.Cursor) + len(o.MsgIDs)
	for i := range o.MsgIDs {
		if p := o.payload(i); p != nil {
			size += uvarintLen(uint64(len(p))) + len(p)
		}
	}
	buf := appendSeqRange(make([]byte, 0, size), o.Epoch, o.BaseSeq, o.MsgIDs, o.Cursor)
	for i := range o.MsgIDs {
		p := o.payload(i)
		if p == nil {
			buf = append(buf, payloadAbsent)
			continue
		}
		buf = append(buf, payloadPresent)
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// decodeOrder decodes an ORDER, aliasing its payloads into data.
func decodeOrder(data []byte, o *orderMsg) error {
	r := wireReader{data: data}
	o.Epoch, o.BaseSeq, o.MsgIDs, o.Cursor = r.seqRange()
	o.Payloads = make([][]byte, len(o.MsgIDs))
	for i := range o.Payloads {
		switch r.uvarint() {
		case payloadAbsent:
		case payloadPresent:
			o.Payloads[i] = r.bytes()
		default:
			r.bad = true
		}
	}
	return r.err()
}

func encodeAck(a ackMsg) []byte {
	size := seqRangeLen(a.Epoch, a.BaseSeq, a.MsgIDs, a.Cursor)
	return appendSeqRange(make([]byte, 0, size), a.Epoch, a.BaseSeq, a.MsgIDs, a.Cursor)
}

func decodeAck(data []byte, a *ackMsg) error {
	r := wireReader{data: data}
	a.Epoch, a.BaseSeq, a.MsgIDs, a.Cursor = r.seqRange()
	return r.err()
}
