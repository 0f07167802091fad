package e2e

import (
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/wal"
)

// fakeUnder is a scripted underlying atomic broadcast for unit tests.
type fakeUnder struct {
	ch     chan abcast.Delivery
	sent   []string
	closed bool
	seq    uint64
}

func newFakeUnder() *fakeUnder {
	return &fakeUnder{ch: make(chan abcast.Delivery, 128)}
}

func (f *fakeUnder) Broadcast(payload []byte) (string, error) {
	f.seq++
	id := fmt.Sprintf("fake/%d", f.seq)
	f.sent = append(f.sent, string(payload))
	return id, nil
}

func (f *fakeUnder) Deliveries() <-chan abcast.Delivery { return f.ch }
func (f *fakeUnder) Close()                             { f.closed = true }

func (f *fakeUnder) deliver(seq uint64, payload string) {
	f.ch <- abcast.Delivery{Seq: seq, MsgID: fmt.Sprintf("m%d", seq), Payload: []byte(payload)}
}

func recvDelivery(t *testing.T, b *Broadcaster, timeout time.Duration) Delivery {
	t.Helper()
	select {
	case d := <-b.Deliveries():
		return d
	case <-time.After(timeout):
		t.Fatal("no delivery before timeout")
		return Delivery{}
	}
}

func TestWrapRequiresLog(t *testing.T) {
	if _, err := Wrap(newFakeUnder(), Config{}); err == nil {
		t.Fatal("Wrap without a log should fail")
	}
}

func TestDeliveryIsLoggedBeforeHandoff(t *testing.T) {
	log := wal.NewMemLog()
	under := newFakeUnder()
	b, err := Wrap(under, Config{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()

	under.deliver(1, "t1")
	d := recvDelivery(t, b, time.Second)
	if d.Seq != 1 || string(d.Payload) != "t1" || d.Replayed {
		t.Fatalf("delivery = %+v", d)
	}
	// The message is on stable storage (synced) before the application saw it.
	if log.DurableLen() == 0 {
		t.Fatal("message was not forced to the stable log before delivery")
	}
	st := b.Stats()
	if st.Logged != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAckStopsReplay(t *testing.T) {
	log := wal.NewMemLog()
	under := newFakeUnder()
	b, _ := Wrap(under, Config{Log: log})
	b.Start()
	under.deliver(1, "t1")
	under.deliver(2, "t2")
	recvDelivery(t, b, time.Second)
	recvDelivery(t, b, time.Second)

	if err := b.Ack(1); err != nil {
		t.Fatal(err)
	}
	if !b.Acked(1) || b.Acked(2) {
		t.Fatal("ack bookkeeping wrong")
	}
	if got := b.Unacked(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Unacked = %v", got)
	}
	// Re-acking is idempotent.
	if err := b.Ack(1); err != nil {
		t.Fatal(err)
	}
	b.Close()

	// Simulate a crash-recovery of the same process: the log survives, the
	// end-to-end layer is rebuilt from it, and only the unacked message is
	// replayed.
	log.Sync()
	b2, err := Wrap(newFakeUnder(), Config{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	n, err := b2.Recover()
	if err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 replayed", n, err)
	}
	d := recvDelivery(t, b2, time.Second)
	if d.Seq != 2 || !d.Replayed || string(d.Payload) != "t2" {
		t.Fatalf("replayed delivery = %+v", d)
	}
}

func TestEndToEndPropertyAcrossCrash(t *testing.T) {
	// The scenario of Fig. 5 / Fig. 7 at the level of the primitive: a message
	// is delivered but the process crashes before processing it.  With the
	// end-to-end broadcast, after recovery the message is delivered again,
	// and after the application finally acks, it is never replayed again.
	log := wal.NewMemLog()
	under := newFakeUnder()
	b, _ := Wrap(under, Config{Log: log})
	b.Start()
	under.deliver(1, "t1")
	recvDelivery(t, b, time.Second)
	// Crash before ack: volatile state is lost but the synced log survives
	// (the standalone pump forces before hand-off).
	b.Close()
	log.Crash()

	b2, _ := Wrap(newFakeUnder(), Config{Log: log})
	defer b2.Close()
	if n, _ := b2.Recover(); n != 1 {
		t.Fatalf("first recovery replayed %d messages, want 1", n)
	}
	d := recvDelivery(t, b2, time.Second)
	if !d.Replayed || d.Seq != 1 {
		t.Fatalf("replay = %+v", d)
	}
	if err := b2.Ack(1); err != nil {
		t.Fatal(err)
	}
	log.Sync()

	b3, _ := Wrap(newFakeUnder(), Config{Log: log})
	defer b3.Close()
	if n, _ := b3.Recover(); n != 0 {
		t.Fatalf("after successful delivery, recovery replayed %d messages, want 0", n)
	}
}

func TestRefinedUniformIntegritySuppressesAckedRedelivery(t *testing.T) {
	log := wal.NewMemLog()
	under := newFakeUnder()
	b, _ := Wrap(under, Config{Log: log})
	defer b.Close()
	b.Start()
	under.deliver(1, "t1")
	recvDelivery(t, b, time.Second)
	b.Ack(1)
	// The underlying layer redelivers seq 1 (e.g. a re-announced order after
	// sequencer failover): the end-to-end layer suppresses it.
	under.deliver(1, "t1")
	select {
	case d := <-b.Deliveries():
		t.Fatalf("acked message redelivered: %+v", d)
	case <-time.After(100 * time.Millisecond):
	}
	if b.Stats().Suppressed != 1 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestUnackedRedeliveryPassesThrough(t *testing.T) {
	// A message delivered but not acked may legitimately be delivered again
	// (refined uniform integrity allows it); it must not be logged twice.
	log := wal.NewMemLog()
	under := newFakeUnder()
	b, _ := Wrap(under, Config{Log: log})
	defer b.Close()
	b.Start()
	under.deliver(1, "t1")
	recvDelivery(t, b, time.Second)
	under.deliver(1, "t1")
	d := recvDelivery(t, b, time.Second)
	if d.Seq != 1 {
		t.Fatalf("redelivery = %+v", d)
	}
	if b.Stats().Logged != 1 {
		t.Fatalf("message logged %d times, want 1", b.Stats().Logged)
	}
}

func TestBroadcastPassThrough(t *testing.T) {
	log := wal.NewMemLog()
	under := newFakeUnder()
	b, _ := Wrap(under, Config{Log: log})
	id, err := b.Broadcast([]byte("payload"))
	if err != nil || id == "" {
		t.Fatalf("broadcast = %q, %v", id, err)
	}
	if len(under.sent) != 1 || under.sent[0] != "payload" {
		t.Fatalf("underlying saw %v", under.sent)
	}
	b.Close()
	if _, err := b.Broadcast([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("broadcast after close: %v", err)
	}
	if err := b.Ack(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("ack after close: %v", err)
	}
	if _, err := b.Recover(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recover after close: %v", err)
	}
}

func TestRecoverOrdersReplaysBySeq(t *testing.T) {
	log := wal.NewMemLog()
	under := newFakeUnder()
	b, _ := Wrap(under, Config{Log: log})
	b.Start()
	for seq := uint64(5); seq >= 1; seq-- {
		under.deliver(seq, fmt.Sprintf("t%d", seq))
	}
	for i := 0; i < 5; i++ {
		recvDelivery(t, b, time.Second)
	}
	b.Ack(3)
	b.Close()
	log.Sync()

	b2, _ := Wrap(newFakeUnder(), Config{Log: log})
	defer b2.Close()
	n, _ := b2.Recover()
	if n != 4 {
		t.Fatalf("replayed %d, want 4", n)
	}
	var prev uint64
	for i := 0; i < 4; i++ {
		d := recvDelivery(t, b2, time.Second)
		if d.Seq <= prev {
			t.Fatalf("replay out of order: %d after %d", d.Seq, prev)
		}
		if d.Seq == 3 {
			t.Fatal("acked message replayed")
		}
		prev = d.Seq
	}
}

// TestConsumerForcesLeavesTheForceToTheConsumer: with ConsumerForces the pump
// logs and hands off without forcing, stamps the record's position on the
// delivery, and a message the consumer never forced does not survive a crash.
func TestConsumerForcesLeavesTheForceToTheConsumer(t *testing.T) {
	log := wal.NewMemLog()
	under := newFakeUnder()
	b, _ := Wrap(under, Config{Log: log, ConsumerForces: true})
	defer b.Close()
	b.Start()
	under.deliver(1, "t1")
	d := recvDelivery(t, b, time.Second)
	if log.Syncs() != 0 || log.DurableLen() != 0 || b.Stats().Forces != 0 {
		t.Fatalf("the pump forced a log its consumer forces (syncs=%d, stats=%+v)", log.Syncs(), b.Stats())
	}
	if d.LSN != log.LastLSN() || d.LSN == 0 {
		t.Fatalf("delivery LSN = %d, message record at %d", d.LSN, log.LastLSN())
	}
	// An unacknowledged redelivery carries the same position: the consumer
	// may not have forced it yet.
	under.deliver(1, "t1")
	if again := recvDelivery(t, b, time.Second); again.LSN != d.LSN {
		t.Fatalf("redelivery LSN = %d, want %d", again.LSN, d.LSN)
	}
	log.Crash()
	b2, _ := Wrap(newFakeUnder(), Config{Log: log, ConsumerForces: true})
	defer b2.Close()
	if n, _ := b2.Recover(); n != 0 {
		t.Fatalf("unforced message replayed after crash: %d", n)
	}
}

// TestSharedLogReplaysTheSameSuffix interleaves message and acknowledgement
// records with database records whose transaction ids dwarf every sequence
// number: the rebuilt state must be what the message records alone give.
func TestSharedLogReplaysTheSameSuffix(t *testing.T) {
	shared, alone := wal.NewMemLog(), wal.NewMemLog()
	dbRecord := func(kind wal.Kind, txn uint64) {
		if _, err := shared.Append(wal.Record{Kind: kind, TxnID: txn, Item: 3, Value: 4}); err != nil {
			t.Fatal(err)
		}
	}
	for _, log := range []*wal.MemLog{shared, alone} {
		under := newFakeUnder()
		b, err := Wrap(under, Config{Log: log, ConsumerForces: true})
		if err != nil {
			t.Fatal(err)
		}
		b.Start()
		for seq := uint64(1); seq <= 6; seq++ {
			under.deliver(seq, fmt.Sprintf("t%d", seq))
			d := recvDelivery(t, b, time.Second)
			if log == shared {
				dbRecord(wal.KindUpdate, 1<<40|seq)
				dbRecord(wal.KindCommit, 1<<40|seq)
			}
			if seq != 2 && seq != 5 {
				if err := b.Ack(d.Seq); err != nil {
					t.Fatal(err)
				}
			}
		}
		b.Close()
		log.Sync()
	}
	dbRecord(wal.KindAbort, 1<<41)
	shared.Sync()

	var got [2][]Delivery
	for i, log := range []*wal.MemLog{shared, alone} {
		b, err := Wrap(newFakeUnder(), Config{Log: log, ConsumerForces: true})
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		if b.Acked(7) || !b.Acked(6) || b.Acked(5) {
			t.Fatalf("log %d: acknowledged watermark is off (a database transaction id leaked into it?)", i)
		}
		n, err := b.Recover()
		if err != nil {
			t.Fatal(err)
		}
		for ; n > 0; n-- {
			d := recvDelivery(t, b, time.Second)
			d.LSN = 0 // positions differ between the two logs by construction
			got[i] = append(got[i], d)
		}
	}
	if len(got[0]) != 2 || got[0][0].Seq != 2 || got[0][1].Seq != 5 || string(got[0][1].Payload) != "t5" || got[0][1].MsgID != "m5" {
		t.Fatalf("shared log replayed %+v, want messages 2 and 5", got[0])
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("shared log replayed %+v, message-only log %+v", got[0], got[1])
	}
}

// TestMessageRecordRoundTrip covers the record format's edges.
func TestMessageRecordRoundTrip(t *testing.T) {
	for _, c := range []struct {
		id      string
		payload []byte
	}{{"", nil}, {"s1/1/7", []byte("payload")}, {strings.Repeat("x", 300), []byte{0}}} {
		id, payload, err := decodeMessage(appendMessage(nil, c.id, c.payload))
		if err != nil || id != c.id || string(payload) != string(c.payload) {
			t.Fatalf("round trip of (%q, %q) = %q, %q, %v", c.id, c.payload, id, payload, err)
		}
	}
	for _, bad := range [][]byte{nil, {5, 'a'}, {0x80}} {
		if _, _, err := decodeMessage(bad); err == nil {
			t.Fatalf("decodeMessage(%v) accepted a malformed record", bad)
		}
	}
}

// TestMessageRecordGoldenBytes pins the message record's data: a log written
// by any commit must replay on any other.
func TestMessageRecordGoldenBytes(t *testing.T) {
	const want = "0773312f332f3432a700"
	if got := hex.EncodeToString(appendMessage(nil, "s1/3/42", []byte{0xa7, 0})); got != want {
		t.Fatalf("message record = %s, want %s", got, want)
	}
}

func TestDoubleStartAndCloseAreIdempotent(t *testing.T) {
	log := wal.NewMemLog()
	b, _ := Wrap(newFakeUnder(), Config{Log: log})
	b.Start()
	b.Start()
	b.Close()
	b.Close()
}

// TestAcknowledgedStateIsDropped checks that what the layer keeps follows the
// unacknowledged suffix, not the history: payloads go when acknowledged, the
// acknowledged set collapses into a watermark — also across the gap a state
// transfer leaves in the sequence numbers and across out-of-order
// acknowledgements — and a restart rebuilds the same suffix from the log.
func TestAcknowledgedStateIsDropped(t *testing.T) {
	under := newFakeUnder()
	log := wal.NewMemLog()
	b, err := Wrap(under, Config{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Close()

	const n = 1000
	seqs := make([]uint64, 0, n)
	for i := uint64(1); i <= n; i++ {
		seq := i
		if i > n/2 {
			seq += 5000 // the delivery cursor skipped ahead (state transfer)
		}
		seqs = append(seqs, seq)
		under.deliver(seq, "p")
		recvDelivery(t, b, time.Second)
	}
	// Acknowledge everything but two stragglers, newest first.
	early, late := seqs[10], seqs[n-10]
	for i := n - 1; i >= 0; i-- {
		if seqs[i] != early && seqs[i] != late {
			if err := b.Ack(seqs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := b.Unacked(); len(got) != 2 || got[0] != early || got[1] != late {
		t.Fatalf("Unacked = %v, want [%d %d]", got, early, late)
	}
	if !b.Acked(seqs[0]) || !b.Acked(seqs[n-1]) || b.Acked(early) || b.Acked(late) {
		t.Fatal("Acked disagrees with the acknowledgements issued")
	}
	b.Ack(early)
	b.Ack(late)
	b.mu.Lock()
	payloads, sparse, queued := len(b.delivered), len(b.above), len(b.order)
	b.mu.Unlock()
	if payloads != 0 || sparse != 0 || queued != 0 {
		t.Fatalf("everything acknowledged, yet %d payloads, %d sparse acknowledgements and %d queued sequence numbers remain", payloads, sparse, queued)
	}
	if !b.Acked(late) || b.Acked(seqs[n-1]+1) {
		t.Fatal("the watermark does not sit on the last acknowledged sequence number")
	}

	// One more message stays unacknowledged across a restart.
	under.deliver(seqs[n-1]+1, "tail")
	recvDelivery(t, b, time.Second)
	log.Sync()
	b2, err := Wrap(newFakeUnder(), Config{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.Unacked(); len(got) != 1 || got[0] != seqs[n-1]+1 {
		t.Fatalf("after the restart Unacked = %v", got)
	}
	if !b2.Acked(early) || !b2.Acked(seqs[n-1]) || len(b2.above) != 0 {
		t.Fatalf("after the restart the acknowledged prefix is not a watermark (%d sparse entries)", len(b2.above))
	}
}
