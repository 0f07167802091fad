package db

import (
	"encoding/binary"
	"encoding/hex"
	"testing"

	"groupsafe/internal/wal"
)

// TestPrepareDataGoldenBytes pins the prepare record's data: a log written
// by any commit must replay on any other.
func TestPrepareDataGoldenBytes(t *testing.T) {
	const want = "0203058001ffff03"
	data := encodePrepareData(2, []int{5, 128, 65535})
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("prepare data = %s, want %s", got, want)
	}
	coord, items, err := decodePrepareData(data)
	if err != nil || coord != 2 || len(items) != 3 || items[2] != 65535 {
		t.Fatalf("decoded %d, %v, %v", coord, items, err)
	}
}

// TestOpenRejectsCorruptPrepareCount: a prepare record announcing more read
// items than it holds fails recovery with an error, not an allocation panic.
func TestOpenRejectsCorruptPrepareCount(t *testing.T) {
	data := binary.AppendUvarint(binary.AppendUvarint(nil, 0), 1<<62)
	if _, _, err := decodePrepareData(data); err == nil {
		t.Fatal("a count of 1<<62 decoded")
	}
	log := wal.NewMemLog()
	if _, err := log.Append(wal.Record{Kind: wal.KindPrepare, TxnID: 7, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Items: 10, Log: log}); err == nil {
		t.Fatal("Open replayed a corrupt prepare record")
	}
}
