//go:build !race

package abcast

import "testing"

// TestDecodeAllocs pins what decoding the hot-path messages costs: the list,
// one string per message id, and an ORDER's payload list; payloads alias
// the wire buffer.
func TestDecodeAllocs(t *testing.T) {
	data := encodeData(dataMsg{Entries: []dataEntry{{MsgID: "s1/1/1", Payload: []byte("a")}, {MsgID: "s1/1/2", Payload: []byte("b")}}})
	order := encodeOrder(orderMsg{Epoch: 2, BaseSeq: 10, MsgIDs: []string{"s1/1/1", "s1/1/2", "s2/1/1", "s3/1/1"},
		Payloads: [][]byte{[]byte("a"), nil, {}, []byte("c")}, Cursor: 9})
	ack := encodeAck(ackMsg{Epoch: 2, BaseSeq: 10, MsgIDs: []string{"s1/1/1", "s1/1/2"}, Cursor: 9})
	for _, c := range []struct {
		name   string
		decode func() error
		want   float64
	}{
		{"decodeData", func() error { var d dataMsg; return decodeData(data, &d) }, 3},
		{"decodeOrder", func() error { var o orderMsg; return decodeOrder(order, &o) }, 6},
		{"decodeAck", func() error { var a ackMsg; return decodeAck(ack, &a) }, 3},
	} {
		if err := c.decode(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = c.decode() }); allocs != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, allocs, c.want)
		}
	}
}
