package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary wire format of the TCP transport.
//
// Every connection starts with a fixed 5-byte header exchanged by BOTH ends
// (magic + protocol version), so two processes built from incompatible
// binaries fail the very first read with a clear error instead of silently
// mis-decoding each other's traffic.  After the handshake the stream is a
// sequence of length-prefixed frames in the same varint style as the abcast
// and transaction payload codecs (PR 2): no gob type descriptors, one buffer
// per message.
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
	// would misread every one.
	tcpVersion = 5

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
	body := uvarintLen(uint64(len(m.Type))) + len(m.Type) +
		uvarintLen(uint64(len(m.From))) + len(m.From) +
		uvarintLen(uint64(len(m.To))) + len(m.To) +
		uvarintLen(uint64(len(m.Payload))) + len(m.Payload)
	buf = binary.AppendUvarint(buf, uint64(body))
	buf = appendWireString(buf, m.Type)
	buf = appendWireString(buf, m.From)
	buf = appendWireString(buf, m.To)
	buf = binary.AppendUvarint(buf, uint64(len(m.Payload)))
	buf = append(buf, m.Payload...)
	return buf
}

func appendWireString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
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
	var m Message
	pos := 0
	next := func(prev string) (string, bool) {
		l, n := binary.Uvarint(body[pos:])
		if n <= 0 || l > uint64(len(body)-pos-n) {
			return "", false
		}
		pos += n
		s := body[pos : pos+int(l)]
		pos += int(l)
		if string(s) == prev { // (compares in place)
			return prev, true
		}
		return string(s), true
	}
	var ok bool
	if m.Type, ok = next(prev.Type); !ok {
		return Message{}, scratch, errBadFrame
	}
	if m.From, ok = next(prev.From); !ok {
		return Message{}, scratch, errBadFrame
	}
	if m.To, ok = next(prev.To); !ok {
		return Message{}, scratch, errBadFrame
	}
	plen, n := binary.Uvarint(body[pos:])
	if n <= 0 || plen != uint64(len(body)-pos-n) {
		return Message{}, scratch, errBadFrame
	}
	pos += n
	if plen > 0 {
		m.Payload = make([]byte, plen)
		copy(m.Payload, body[pos:])
	}
	return m, scratch, nil
}
