package server

import (
	"encoding/binary"
	"errors"
	"hash/fnv"

	"groupsafe/internal/core"
	"groupsafe/internal/storage"
	"groupsafe/internal/varint"
)

// Varint codecs for the state-transfer messages srv.pull and srv.snap, in
// the same style as the replicated transaction payloads.

var errBadSnapshot = errors.New("server: malformed snapshot payload")

const (
	snapMagic = 0xA9
	pullMagic = 0xAA
)

// statePair names what a replica holds: its applied sequence and a digest of
// its committed items.  Two replicas with equal pairs hold the same items at
// the same point of the order (barring a 64-bit digest collision), so a pull
// that carries the puller's pair needs no answer from a peer whose own pair
// is equal.  The sequence alone would not do: sequences restart after a
// total failure.
type statePair struct {
	seq, digest uint64
}

// pairOf returns the pair of a snapshot.  The digest is 64-bit FNV-1a over
// every item's value and version, in item order.
func pairOf(s core.StateSnapshot) statePair {
	h := fnv.New64a()
	var b [16]byte
	for _, it := range s.Items {
		binary.LittleEndian.PutUint64(b[:8], uint64(it.Value))
		binary.LittleEndian.PutUint64(b[8:], it.Version)
		h.Write(b[:])
	}
	return statePair{seq: s.LastAppliedSeq, digest: h.Sum64()}
}

func appendPull(buf []byte, p statePair) []byte {
	buf = append(buf, pullMagic)
	buf = binary.AppendUvarint(buf, p.seq)
	return binary.AppendUvarint(buf, p.digest)
}

// decodePull reads a pull's pair.  It fails on an empty pull, which a puller
// of an earlier version sends and which is answered unconditionally.
func decodePull(data []byte) (statePair, error) {
	r := varint.NewReader(data)
	if r.Byte() != pullMagic {
		r.Fail()
	}
	p := statePair{seq: r.Uvarint(), digest: r.Uvarint()}
	if err := r.Err(); err != nil {
		return statePair{}, err
	}
	return p, nil
}

func appendSnapshot(buf []byte, s core.StateSnapshot) []byte {
	buf = append(buf, snapMagic)
	buf = binary.AppendUvarint(buf, s.LastAppliedSeq)
	buf = binary.AppendUvarint(buf, uint64(len(s.Items)))
	for _, it := range s.Items {
		buf = binary.AppendVarint(buf, it.Value)
		buf = binary.AppendUvarint(buf, it.Version)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.AppliedTxns)))
	for _, id := range s.AppliedTxns {
		buf = binary.AppendUvarint(buf, id)
	}
	return buf
}

func decodeSnapshot(data []byte) (core.StateSnapshot, error) {
	var s core.StateSnapshot
	r := varint.NewReader(data)
	if r.Byte() != snapMagic {
		return s, errBadSnapshot
	}
	s.LastAppliedSeq = r.Uvarint()
	s.Items = make([]storage.Item, r.Count())
	for i := range s.Items {
		s.Items[i] = storage.Item{Value: r.Varint(), Version: r.Uvarint()}
	}
	s.AppliedTxns = make([]uint64, r.Count())
	for i := range s.AppliedTxns {
		s.AppliedTxns[i] = r.Uvarint()
	}
	if r.Err() != nil {
		return core.StateSnapshot{}, errBadSnapshot
	}
	return s, nil
}
