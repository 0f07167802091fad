package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"groupsafe/internal/varint"
)

// Binary wire format of the TCP transport.
//
// Every connection starts with a fixed 5-byte header exchanged by BOTH ends
// (magic + protocol version), so two processes built from incompatible
// binaries fail the very first read with a clear error instead of silently
// mis-decoding each other's traffic.  After the handshake the stream is a
// sequence of length-prefixed frames in the module's varint codec, like
// every message they carry: one buffer per message.
//
//	handshake: "GSTP" <version byte>
//	frame:     uvarint(bodyLen) body
//	body:      str(Type) str(From) str(To) str(Payload)
//	str:       uvarint(len) bytes

const (
	tcpMagic = "GSTP"
	// tcpVersion changes whenever processes on the two sides of the change
	// must not form a group, not only when the frame layout does.  2: the
	// atomic broadcast counts an ORDER as its sequencer's vote and the
	// sequencer sends no ACK; a version-1 member would wait for that ACK.
	// 3: an ORDER no longer carries its sequencer's epoch floor apart from
	// its epoch; a version-2 member would misread every ORDER.  4: an ORDER
	// carries the payloads it numbers and DATA goes to the sequencer alone; a
	// version-3 member would misread every ORDER, and a version-3 sequencer
	// would announce payloads the other members never get.  5: ORDERs and
	// ACKs no longer carry the sender's applied sequence; a version-4 member
	// would misread every one.  6: NACK, NEWEPOCH, STATE and the replica's
	// rep.lazy and rep.ack payloads are varint layouts instead of gob; a
	// version-5 member would misread every one.
	tcpVersion = 6

	// maxFrameSize bounds one frame; a peer announcing more is treated as
	// corrupt and disconnected (fail fast instead of allocating unbounded).
	maxFrameSize = 16 << 20
)

// Wire-format errors.  ErrBadHandshake is surfaced when a connection's first
// bytes are not the expected magic/version — typically two incompatible
// binaries trying to talk to each other.
var (
	ErrBadHandshake  = errors.New("transport: handshake mismatch (incompatible peer binary or wrong port)")
	errFrameTooLarge = errors.New("transport: frame exceeds size limit")
	errBadFrame      = errors.New("transport: malformed frame")
)

// writeHandshake emits this end's magic+version header.
func writeHandshake(w io.Writer) error {
	var hdr [len(tcpMagic) + 1]byte
	copy(hdr[:], tcpMagic)
	hdr[len(tcpMagic)] = tcpVersion
	_, err := w.Write(hdr[:])
	return err
}

// readHandshake validates the peer's header.  A wrong magic or version is
// reported as ErrBadHandshake with the offending bytes, so operators can tell
// a version skew from a stray client hitting the peer port.
func readHandshake(r io.Reader) error {
	var hdr [len(tcpMagic) + 1]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if string(hdr[:len(tcpMagic)]) != tcpMagic {
		return fmt.Errorf("%w: magic %q", ErrBadHandshake, hdr[:len(tcpMagic)])
	}
	if hdr[len(tcpMagic)] != tcpVersion {
		return fmt.Errorf("%w: peer speaks version %d, this binary speaks %d", ErrBadHandshake, hdr[len(tcpMagic)], tcpVersion)
	}
	return nil
}

// appendFrame encodes one message as a length-prefixed frame into buf.
func appendFrame(buf []byte, m Message) []byte {
	body := varint.UvarintLen(uint64(len(m.Type))) + len(m.Type) +
		varint.UvarintLen(uint64(len(m.From))) + len(m.From) +
		varint.UvarintLen(uint64(len(m.To))) + len(m.To) +
		varint.UvarintLen(uint64(len(m.Payload))) + len(m.Payload)
	buf = binary.AppendUvarint(buf, uint64(body))
	buf = varint.AppendString(buf, m.Type)
	buf = varint.AppendString(buf, m.From)
	buf = varint.AppendString(buf, m.To)
	return varint.AppendBytes(buf, m.Payload)
}

// readFrame reads one frame from r into a fresh Message.  The payload is
// copied out of the read buffer, so the message may outlive the next read; a
// string field equal to the one in prev, the connection's previous frame,
// shares it — From and To never change on a connection and Type seldom does.
func readFrame(r *bufio.Reader, scratch []byte, prev Message) (Message, []byte, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return Message{}, scratch, err
	}
	if size > maxFrameSize {
		return Message{}, scratch, errFrameTooLarge
	}
	if cap(scratch) < int(size) {
		scratch = make([]byte, size)
	}
	body := scratch[:size]
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, scratch, err
	}
	br := varint.NewReader(body)
	str := func(prev string) string {
		if s := br.Bytes(); string(s) != prev { // (compares in place)
			return string(s)
		}
		return prev
	}
	m := Message{Type: str(prev.Type), From: str(prev.From), To: str(prev.To)}
	if p := br.Bytes(); len(p) > 0 {
		m.Payload = append([]byte(nil), p...)
	}
	if br.Err() != nil {
		return Message{}, scratch, errBadFrame
	}
	return m, scratch, nil
}
