package abcast

import (
	"bytes"
	"math/rand"
	"testing"
)

func randEntries(rng *rand.Rand, n int) []dataEntry {
	entries := make([]dataEntry, n)
	for i := range entries {
		id := make([]byte, 1+rng.Intn(24))
		payload := make([]byte, rng.Intn(256))
		rng.Read(id)
		rng.Read(payload)
		entries[i] = dataEntry{MsgID: string(id), Payload: payload}
	}
	return entries
}

func TestDataCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		in := dataMsg{Entries: randEntries(rng, rng.Intn(32))}
		var out dataMsg
		if err := decodeData(encodeData(in), &out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(out.Entries) != len(in.Entries) {
			t.Fatalf("trial %d: entry count %d != %d", trial, len(out.Entries), len(in.Entries))
		}
		for i := range in.Entries {
			if out.Entries[i].MsgID != in.Entries[i].MsgID ||
				!bytes.Equal(out.Entries[i].Payload, in.Entries[i].Payload) {
				t.Fatalf("trial %d: entry %d mismatch", trial, i)
			}
		}
	}
}

func TestSeqRangeCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		ids := make([]string, rng.Intn(16))
		for i := range ids {
			b := make([]byte, 1+rng.Intn(24))
			rng.Read(b)
			ids[i] = string(b)
		}
		// Payloads: absent, empty or random.
		payloads := make([][]byte, len(ids))
		for i := range payloads {
			if k := rng.Intn(3); k > 0 {
				payloads[i] = make([]byte, (k-1)*rng.Intn(64))
				rng.Read(payloads[i])
			}
		}
		in := orderMsg{Epoch: rng.Uint64(), BaseSeq: rng.Uint64(), MsgIDs: ids, Payloads: payloads, Cursor: rng.Uint64()}
		var out orderMsg
		if err := decodeOrder(encodeOrder(in), &out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if out.Epoch != in.Epoch || out.BaseSeq != in.BaseSeq || out.Cursor != in.Cursor || len(out.MsgIDs) != len(in.MsgIDs) || len(out.Payloads) != len(ids) {
			t.Fatalf("trial %d: header mismatch: %+v vs %+v", trial, out, in)
		}
		for i := range ids {
			if out.MsgIDs[i] != ids[i] {
				t.Fatalf("trial %d: id %d mismatch", trial, i)
			}
			if (out.Payloads[i] == nil) != (payloads[i] == nil) || !bytes.Equal(out.Payloads[i], payloads[i]) {
				t.Fatalf("trial %d: payload %d is %v, want %v", trial, i, out.Payloads[i], payloads[i])
			}
		}
	}
}

func TestCodecRejectsTruncation(t *testing.T) {
	data := encodeData(dataMsg{Entries: []dataEntry{{MsgID: "a/1/2", Payload: []byte("hello")}}})
	var d dataMsg
	for cut := 0; cut < len(data); cut++ {
		if err := decodeData(data[:cut], &d); err == nil {
			t.Fatalf("truncated DATA at %d decoded", cut)
		}
	}
	// Present, empty and absent payloads: the absent one is a byte of its own.
	order := encodeOrder(orderMsg{Epoch: 3, BaseSeq: 9, MsgIDs: []string{"a/1/2", "b/1/1", "c/1/1"}, Payloads: [][]byte{[]byte("hi"), {}, nil}})
	var o orderMsg
	for cut := 0; cut < len(order); cut++ {
		if err := decodeOrder(order[:cut], &o); err == nil {
			t.Fatalf("truncated ORDER at %d decoded", cut)
		}
	}
	if err := decodeOrder(order, &o); err != nil || string(o.Payloads[0]) != "hi" || o.Payloads[1] == nil || len(o.Payloads[1]) != 0 || o.Payloads[2] != nil {
		t.Fatalf("ORDER decoded to %q (%v), want present, empty and absent payloads", o.Payloads, err)
	}
	bad := append([]byte(nil), order...)
	bad[len(bad)-1] = 2 // neither absent nor present
	if err := decodeOrder(bad, &o); err == nil {
		t.Fatal("an ORDER with an unknown payload marker decoded")
	}
}

// BenchmarkWireEncode pins the allocation count of the hot-path wire
// encoders: exactly one allocation (the exact-size wire buffer) per message,
// versus the gob encoder's dozens.
func BenchmarkWireEncode(b *testing.B) {
	entries := randEntries(rand.New(rand.NewSource(3)), 8)
	order := orderMsg{Epoch: 1, BaseSeq: 100, MsgIDs: make([]string, 8), Payloads: make([][]byte, 8)}
	for i := range order.MsgIDs {
		order.MsgIDs[i], order.Payloads[i] = entries[i].MsgID, entries[i].Payload
	}
	b.Run("data-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeData(dataMsg{Entries: entries})
		}
	})
	b.Run("order-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodeOrder(order)
		}
	})
	b.Run("gob-data-8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encode(dataMsg{Entries: entries})
		}
	})
}
