package abcast

import (
	"bytes"
	"testing"
)

// fuzzCodec checks a decoder of peer input against the codec's rules: it
// never panics, an input that decodes re-encodes to itself, and every strict
// prefix of such an input fails.  The seeds are valid encodings.
func fuzzCodec[T any](f *testing.F, decode func([]byte, *T) error, encode func(T) []byte, seeds ...T) {
	for _, s := range seeds {
		f.Add(encode(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v T
		if decode(data, &v) != nil {
			return
		}
		if got := encode(v); !bytes.Equal(got, data) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", data, v, got)
		}
		for cut := range data {
			var w T
			if decode(data[:cut], &w) == nil {
				t.Fatalf("%x truncated to %d bytes decodes to %+v", data, cut, w)
			}
		}
	})
}

var fuzzEntries = []dataEntry{{MsgID: "s1/1/1", Payload: []byte("abc")}, {MsgID: "s2/7/300", Payload: []byte{}}}

func FuzzDecodeData(f *testing.F) {
	fuzzCodec(f, decodeData, encodeData, dataMsg{Entries: fuzzEntries}, dataMsg{})
}

func FuzzDecodeOrder(f *testing.F) {
	fuzzCodec(f, decodeOrder, encodeOrder,
		orderMsg{Epoch: 3, BaseSeq: 200, MsgIDs: []string{"a/1/2", "b/1/1", "c/1/1"}, Payloads: [][]byte{[]byte("hi"), {}, nil}, Cursor: 150})
}

func FuzzDecodeAck(f *testing.F) {
	fuzzCodec(f, decodeAck, encodeAck, ackMsg{Epoch: 1 << 40, BaseSeq: 1, MsgIDs: []string{"s1/1/1", "s1/1/2"}, Cursor: 1})
}

func FuzzDecodeNack(f *testing.F) {
	fuzzCodec(f, decodeNack, encodeNack, nackMsg{Seq: 77, MsgID: "s3/2/9"}, nackMsg{})
}

func FuzzDecodeNewEpoch(f *testing.F) {
	fuzzCodec(f, decodeNewEpoch, encodeNewEpoch, newEpochMsg{Epoch: 4}, newEpochMsg{Epoch: 1 << 62})
}

func FuzzDecodeState(f *testing.F) {
	fuzzCodec(f, decodeState, encodeState, stateMsg{Epoch: 5, Base: 90,
		Slots:     []stateSlot{{MsgID: "s1/1/1", Epoch: 4, Payload: []byte("x")}, {}, {MsgID: "s2/1/1", Epoch: 3}, {MsgID: "s2/1/2", Epoch: 3, Payload: []byte{}}},
		Unordered: fuzzEntries})
}

// TestStateKeepsEmptyPayloadPresent: as in an ORDER, an empty payload in a
// STATE slot or unordered entry is present, not absent — a takeover that
// lost it would stall delivery of an empty broadcast.
func TestStateKeepsEmptyPayloadPresent(t *testing.T) {
	in := stateMsg{Epoch: 2, Base: 7,
		Slots:     []stateSlot{{MsgID: "s1/1/1", Epoch: 1, Payload: []byte{}}, {MsgID: "s1/1/2", Epoch: 1}},
		Unordered: []dataEntry{{MsgID: "s2/1/1", Payload: []byte{}}}}
	var out stateMsg
	if err := decodeState(encodeState(in), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Slots) != 2 || out.Slots[0].Payload == nil || len(out.Slots[0].Payload) != 0 || out.Slots[1].Payload != nil {
		t.Fatalf("slots decoded to %+v, want an empty payload and an absent one", out.Slots)
	}
	if len(out.Unordered) != 1 || out.Unordered[0].Payload == nil || len(out.Unordered[0].Payload) != 0 {
		t.Fatalf("unordered entries decoded to %+v, want one empty payload", out.Unordered)
	}
}
