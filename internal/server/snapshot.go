package server

import (
	"encoding/binary"
	"errors"

	"groupsafe/internal/core"
	"groupsafe/internal/storage"
	"groupsafe/internal/varint"
)

// Varint codec for the state-transfer snapshot exchanged by srv.pull /
// srv.snap, in the same style as the replicated transaction payloads.

var errBadSnapshot = errors.New("server: malformed snapshot payload")

const snapMagic = 0xA9

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
