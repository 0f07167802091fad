// Package netproto is the client↔server wire protocol of the networked
// database: the framing and binary codecs spoken between gsdb.Dial clients
// and gsdb-server processes.  It deliberately mirrors the replica-to-replica
// transport's style — a fixed magic+version handshake that fails fast on
// mismatched binaries, then varint length-prefixed frames — but uses a
// different magic, so a client dialled at a peer port (or vice versa) is
// rejected at the first four bytes instead of misinterpreting frames.
//
// Every frame carries a correlation ID assigned by the client, so one
// connection multiplexes any number of in-flight requests and responses may
// arrive out of order (read-only transactions overtake slow 2-safe commits).
package netproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"groupsafe/internal/varint"
)

// Handshake constants.  Bump Version when the frame or payload encodings
// change incompatibly.
const (
	Magic   = "GSCL"
	Version = 2
)

// maxFrame bounds a frame body; larger frames indicate a corrupt or hostile
// stream.
const maxFrame = 16 << 20

// Frame types.
const (
	// MsgExec carries an encoded Request (client → server).
	MsgExec byte = 1
	// MsgResult carries an encoded Result (server → client).
	MsgResult byte = 2
	// MsgError carries an error code and message (server → client).
	MsgError byte = 3
	// MsgInfo requests the server's status (client → server, empty payload).
	MsgInfo byte = 4
	// MsgInfoResult carries an encoded ServerInfo (server → client).
	MsgInfoResult byte = 5
)

// ErrBadHandshake is returned when the peer does not speak this protocol.
var ErrBadHandshake = errors.New("netproto: bad protocol handshake")

// WriteHandshake sends the protocol preamble.
func WriteHandshake(w io.Writer) error {
	_, err := w.Write([]byte{Magic[0], Magic[1], Magic[2], Magic[3], Version})
	return err
}

// ReadHandshake consumes and validates the peer's preamble.
func ReadHandshake(r io.Reader) error {
	var buf [5]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if string(buf[:4]) != Magic {
		return fmt.Errorf("%w: magic %q", ErrBadHandshake, buf[:4])
	}
	if buf[4] != Version {
		return fmt.Errorf("%w: peer speaks version %d, this binary speaks %d", ErrBadHandshake, buf[4], Version)
	}
	return nil
}

// Frame is one protocol message.
type Frame struct {
	CorrID  uint64
	Type    byte
	Payload []byte
}

// AppendFrame appends the encoded frame to buf and returns the extended
// slice.  The frame's size is known before anything is written, so buf grows
// at most once.
func AppendFrame(buf []byte, f Frame) []byte {
	var corr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(corr[:], f.CorrID)
	body := n + 1 + len(f.Payload)
	buf = slices.Grow(buf, binary.MaxVarintLen64+body)
	buf = binary.AppendUvarint(buf, uint64(body))
	buf = append(buf, corr[:n]...)
	buf = append(buf, f.Type)
	return append(buf, f.Payload...)
}

// WriteFrame encodes and writes one frame from one buffer.
func WriteFrame(w io.Writer, f Frame) error {
	_, err := w.Write(AppendFrame(nil, f))
	return err
}

// ReadFrame reads one frame.  The returned payload is freshly allocated.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return Frame{}, err
	}
	if n > maxFrame {
		return Frame{}, fmt.Errorf("netproto: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, fmt.Errorf("netproto: short frame: %w", err)
	}
	br := varint.NewReader(body)
	f := Frame{CorrID: br.Uvarint(), Type: br.Byte(), Payload: br.Rest()}
	if br.Err() != nil {
		return Frame{}, errors.New("netproto: malformed frame header")
	}
	return f, nil
}
