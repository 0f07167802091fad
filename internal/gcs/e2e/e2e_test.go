package e2e

import (
	"errors"
	"fmt"
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
	// (per-message sync is the default).
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

func TestNoSyncEveryMessageOption(t *testing.T) {
	log := wal.NewMemLog()
	under := newFakeUnder()
	b, _ := Wrap(under, Config{Log: log, NoSyncEveryMessage: true})
	defer b.Close()
	b.Start()
	under.deliver(1, "t1")
	recvDelivery(t, b, time.Second)
	if log.DurableLen() != 0 {
		t.Fatal("NoSyncEveryMessage should not force the log per message")
	}
	// With the lazy setting, an unsynced message does not survive a crash —
	// the durability/latency trade-off measured by the ablation benchmark.
	log.Crash()
	b2, _ := Wrap(newFakeUnder(), Config{Log: log})
	defer b2.Close()
	if n, _ := b2.Recover(); n != 0 {
		t.Fatalf("unsynced message replayed after crash: %d", n)
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
