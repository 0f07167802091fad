package abcast

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/transport"
)

// TestBatchedTotalOrder checks that batching preserves uniform total order
// across batch boundaries: several senders batch concurrently, and every
// member must deliver the same message ids in the same gap-free sequence.
func TestBatchedTotalOrder(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3", "s4", "s5"}
	nodes := makeGroup(t, net, addrs)

	const perSender = 20
	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if _, err := n.bc.Broadcast([]byte(fmt.Sprintf("%s-%d", n.addr, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	total := perSender * len(nodes)
	sequences := make([][]string, len(nodes))
	for i, n := range nodes {
		ds := collect(t, n, total, 10*time.Second)
		seq := make([]string, len(ds))
		for j, d := range ds {
			if d.Seq != uint64(j+1) {
				t.Fatalf("%s: delivery %d has seq %d (gap across a batch boundary)", n.addr, j, d.Seq)
			}
			seq[j] = d.MsgID
		}
		sequences[i] = seq
	}
	for i := 1; i < len(sequences); i++ {
		for j := range sequences[0] {
			if sequences[i][j] != sequences[0][j] {
				t.Fatalf("order mismatch between %s and %s at position %d", addrs[0], addrs[i], j)
			}
		}
	}
}

// TestBatchedFIFOPerSender checks that batching keeps one sender's payloads
// in submission order (they travel in the same DATA batches and the
// sequencer orders batch entries in order).
func TestBatchedFIFOPerSender(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)

	const count = 32
	ids := make([]string, count)
	for i := 0; i < count; i++ {
		id, err := nodes[1].bc.Broadcast([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	ds := collect(t, nodes[0], count, 5*time.Second)
	for i, d := range ds {
		if d.MsgID != ids[i] {
			t.Fatalf("position %d delivered %s, want %s (sender FIFO broken)", i, d.MsgID, ids[i])
		}
	}
}

// TestBatchedMessageReduction verifies the point of the exercise: a busy
// sender's payloads share DATA, ORDER and ACK messages, so the lane sends far
// fewer protocol messages per broadcast than one round per message would.
func TestBatchedMessageReduction(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3", "s4", "s5"}
	nodes := makeGroup(t, net, addrs)
	const count = 64
	for i := 0; i < count; i++ {
		if _, err := nodes[0].bc.Broadcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		collect(t, n, count, 10*time.Second)
	}
	var sent uint64
	for _, n := range nodes {
		sent += n.bc.Stats().MsgsSent
	}
	// One round per message costs n DATA + n ORDER + n*n ACK sends.
	unbatched := float64(len(addrs) * (2 + len(addrs)))
	if got := float64(sent) / count; got >= unbatched/2 {
		t.Fatalf("msgs/broadcast: %.1f, one round per message costs %.0f — batching should at least halve the message count", got, unbatched)
	}
}

// TestBatchedSequencerFailover crashes the sequencer between two batches and
// checks that numbering continues gap-free for the survivors.
func TestBatchedSequencerFailover(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3", "s4", "s5"}
	nodes := makeGroup(t, net, addrs)

	for i := 0; i < 4; i++ {
		if _, err := nodes[1].bc.Broadcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		collect(t, n, 4, 5*time.Second)
	}

	net.Crash("s1")
	for _, n := range nodes[1:] {
		n.bc.Suspect("s1")
	}
	waitFor(t, 2*time.Second, func() bool {
		for _, n := range nodes[1:] {
			if n.bc.Sequencer() != "s2" {
				return false
			}
		}
		return true
	})

	for i := 0; i < 4; i++ {
		if _, err := nodes[3].bc.Broadcast([]byte{byte(100 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes[1:] {
		ds := collect(t, n, 4, 5*time.Second)
		for j, d := range ds {
			if d.Seq != uint64(5+j) {
				t.Fatalf("%s: post-failover delivery %d has seq %d, want %d", n.addr, j, d.Seq, 5+j)
			}
		}
	}
}

// TestPartiallyAckedBatchSurvivesFailover drives the uniform-agreement
// corner white-box: a batch of three messages is ordered by the old
// sequencer, but only a minority acknowledged it before the crash, so no
// member delivered.  The new sequencer gathers state from a majority in
// which only ONE member knows the batch order; uniform agreement requires
// the adopted order to keep exactly the old (sequence, message id)
// assignment, and the batch must then be delivered in the original order.
func TestPartiallyAckedBatchSurvivesFailover(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3", "s4", "s5"}
	ep := net.Endpoint("s2")
	router := gcs.NewRouter(ep)
	b, err := New(Config{Self: "s2", Members: addrs}, router)
	if err != nil {
		t.Fatal(err)
	}
	// The router is never started: every protocol step is injected directly,
	// making the scenario fully deterministic.
	defer b.Close()

	entries := []dataEntry{
		{MsgID: "s3/1", Payload: []byte("a")},
		{MsgID: "s3/2", Payload: []byte("b")},
		{MsgID: "s3/3", Payload: []byte("c")},
	}
	// s2 has the payloads and the batch order of epoch 0, stored only by the
	// sequencer (the ORDER is its vote) and s2 itself (2 of 5 — a minority,
	// nothing deliverable).
	b.handleData(dataMsg{Entries: entries})
	order := orderMsg{Epoch: 0, BaseSeq: 1, MsgIDs: []string{"s3/1", "s3/2", "s3/3"}}
	b.handleOrder(order, "s1")
	select {
	case d := <-b.Deliveries():
		t.Fatalf("minority-acked batch must not deliver, got %+v", d)
	default:
	}

	// The sequencer s1 crashes; s2 is next in line and starts gathering.
	b.Suspect("s1")
	if b.Sequencer() != "s2" || !b.gatheringNow() {
		t.Fatalf("s2 should be gathering as the epoch-1 sequencer")
	}

	// s4 and s5 never saw the batch order; their states complete the
	// majority.  The adopted orders must still carry the batch assignment
	// (s2's own state is part of the gather set).
	b.handleState(stateMsg{Epoch: 1}, "s4")
	b.handleState(stateMsg{Epoch: 1}, "s5")

	// s2 voted for the adopted orders when it re-announced them under epoch
	// 1; the votes of s3 and s4 arrive as ACKs and complete the majority.
	b.handleAck(ackMsg{Epoch: 1, BaseSeq: 1, MsgIDs: order.MsgIDs}, "s3")
	b.handleAck(ackMsg{Epoch: 1, BaseSeq: 1, MsgIDs: order.MsgIDs}, "s4")

	for i, want := range []string{"s3/1", "s3/2", "s3/3"} {
		select {
		case d := <-b.Deliveries():
			if d.Seq != uint64(i+1) || d.MsgID != want {
				t.Fatalf("delivery %d: got (seq %d, %s), want (seq %d, %s) — the partially-acked batch order was not preserved", i, d.Seq, d.MsgID, i+1, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("delivery %d never arrived after failover", i)
		}
	}
}

// gatheringNow exposes the gathering flag to the white-box failover test.
func (b *Broadcaster) gatheringNow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gathering
}

// TestBusySenderCoalescesBehindItsInFlightBatch forces co-travellers instead
// of hoping the scheduler makes some: the sequencer's ORDER for a sender's
// in-flight payload is held back (the router never runs; the test injects
// the ORDER when it chooses), so the k broadcasts that follow must wait
// behind it in the send buffer and leave together, in one DATA, when its
// delivery drains the pipe.  A sender that sent each of them at once would
// submit k+1 batches.
func TestBusySenderCoalescesBehindItsInFlightBatch(t *testing.T) {
	const k = 8
	for attempt := 1; ; attempt++ {
		net := transport.NewMemNetwork()
		tp := &tap{Endpoint: net.Endpoint("s2")}
		b, err := New(Config{Self: "s2", Members: []string{"s1", "s2", "s3"}, NackDelay: time.Hour}, gcs.NewRouter(tp))
		if err != nil {
			t.Fatal(err)
		}
		first, err := b.Broadcast([]byte("in flight"))
		if err != nil {
			t.Fatal(err)
		}
		// The sender is busy: its arrivals have come about delayCap/2 apart,
		// so the backstop of the batch that opens next is the full delayCap.
		b.mu.Lock()
		b.lastSendAt, b.sendGapEWMA = time.Now(), delayCap/2
		b.mu.Unlock()
		start := time.Now()
		ids := make([]string, k)
		for i := range ids {
			if ids[i], err = b.Broadcast([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		queued := b.Stats().DataBatches
		elapsed := time.Since(start) // bounds when queued was read
		// The sequencer's ORDER is its vote; with ours it is a majority of 3.
		b.handleOrder(orderMsg{Epoch: 0, BaseSeq: 1, MsgIDs: []string{first}}, "s1")
		batches := b.Stats().DataBatches
		b.Close()
		if elapsed >= delayCap {
			// The backstop may have split the burst: this trial proves nothing.
			if attempt == 5 {
				t.Fatalf("%d broadcasts never fit in one %v backstop window (last took %v)", k, delayCap, elapsed)
			}
			continue
		}

		if queued != 1 {
			t.Fatalf("%d DATA batches left while the first was in flight, want 1: a busy sender must buffer", queued)
		}
		if batches != 2 {
			t.Fatalf("%d DATA batches in all, want 2: the %d co-travellers must leave together", batches, k)
		}
		// The backstop may have flushed the batch just before the ORDER did:
		// then its DATA leaves from the timer's goroutine, a moment later.
		var datas []dataMsg
		waitFor(t, 2*time.Second, func() bool {
			datas = datas[:0]
			for _, m := range tp.log() {
				var d dataMsg
				if m.Type == MsgData && decodeData(m.Payload, &d) == nil {
					datas = append(datas, d)
				}
			}
			return len(datas) >= 2
		})
		if len(datas) != 2 || len(datas[1].Entries) != k {
			t.Fatalf("DATA frames sent: %+v, want the lone first payload, then all %d co-travellers in one", datas, k)
		}
		for i, e := range datas[1].Entries {
			if e.MsgID != ids[i] {
				t.Fatalf("co-traveller %d is %s, want %s (sender FIFO)", i, e.MsgID, ids[i])
			}
		}
		return
	}
}
