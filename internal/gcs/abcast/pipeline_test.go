package abcast

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/transport"
)

// assertUniformTotalOrder drains total deliveries from every node and checks
// the uniform atomic broadcast contract: gap-free sequence numbers and the
// same message id at every position on every member, no duplicates.
func assertUniformTotalOrder(t *testing.T, nodes []*node, total int) {
	t.Helper()
	sequences := make([][]string, len(nodes))
	for i, n := range nodes {
		ds := collect(t, n, total, 15*time.Second)
		seq := make([]string, len(ds))
		seen := make(map[string]bool, len(ds))
		for j, d := range ds {
			if d.Seq != uint64(j+1) {
				t.Fatalf("%s: delivery %d has seq %d (gap)", n.addr, j, d.Seq)
			}
			if seen[d.MsgID] {
				t.Fatalf("%s: %s delivered twice", n.addr, d.MsgID)
			}
			seen[d.MsgID] = true
			seq[j] = d.MsgID
		}
		sequences[i] = seq
	}
	for i := 1; i < len(sequences); i++ {
		for j := range sequences[0] {
			if sequences[i][j] != sequences[0][j] {
				t.Fatalf("order mismatch between %s and %s at position %d", nodes[0].addr, nodes[i].addr, j)
			}
		}
	}
}

// broadcastConcurrently has every node broadcast perSender payloads from its
// own goroutine and returns once all Broadcast calls returned.
func broadcastConcurrently(t *testing.T, nodes []*node, perSender int) {
	t.Helper()
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
}

// TestIdleSenderSendsImmediately checks the zero-added-latency half of the
// delivery-clocked batching: a lone broadcast is sent immediately (one DATA
// message carrying one payload), not parked behind a co-traveller wait.
func TestIdleSenderSendsImmediately(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)
	if _, err := nodes[1].bc.Broadcast([]byte("lonely")); err != nil {
		t.Fatal(err)
	}
	ds := collect(t, nodes[2], 1, 2*time.Second)
	if string(ds[0].Payload) != "lonely" {
		t.Fatalf("delivered %q", ds[0].Payload)
	}
	if got := nodes[1].bc.Stats().DataBatches; got != 1 {
		t.Fatalf("idle sender sent %d DATA batches, want 1 (immediate send)", got)
	}
}

// TestAckCoalescingReducesAckSends verifies the ACK fan-in win: under a
// stream of back-to-back broadcasts, members acknowledge whole ORDER ranges
// and merge contiguous ones, emitting far fewer ACK messages than one per
// order per member.
func TestAckCoalescingReducesAckSends(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)
	const count = 100
	go func() {
		for i := 0; i < count; i++ {
			nodes[1].bc.Broadcast([]byte{byte(i)})
		}
	}()
	for _, n := range nodes {
		collect(t, n, count, 10*time.Second)
	}
	var ackSends, ordered uint64
	for _, n := range nodes {
		s := n.bc.Stats()
		ackSends += s.AckSends
		ordered += s.Ordered
	}
	// One ACK per order per member would be 3 members x 100 orders = 300
	// sends.  Require at least a 2x reduction (in practice ranges and merges
	// collapse it much further).
	if ackSends >= count*uint64(len(addrs))/2 {
		t.Fatalf("ACK coalescing sent %d ACK messages for %d orders across %d members (baseline %d)",
			ackSends, count, len(addrs), count*len(addrs))
	}
	t.Logf("ACK sends: %d for %d orders across %d members (baseline %d)", ackSends, count, len(addrs), count*len(addrs))
}

// TestCrashBeforeOrderEscapes drives the mid-pipeline failover
// window: the sequencer receives a DATA batch but crashes before any of its
// ORDER messages reach another member (all its outbound links are cut).  The
// payload must still be delivered exactly once by the survivors — its sender
// holds it unordered and re-sends it, and the takeover sequencer orders it
// fresh.
func TestCrashBeforeOrderEscapes(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3", "s4", "s5"}
	nodes := makeGroup(t, net, addrs)

	for _, to := range addrs[1:] {
		net.BlockLink("s1", to)
	}
	if _, err := nodes[2].bc.Broadcast([]byte("orphaned")); err != nil {
		t.Fatal(err)
	}
	// Give the sequencer time to receive the DATA and send its
	// (blackholed) ORDER: the crash lands after assignment, before escape.
	time.Sleep(20 * time.Millisecond)
	net.Crash("s1")
	for _, n := range nodes[1:] {
		n.bc.Suspect("s1")
	}

	for _, n := range nodes[1:] {
		ds := collect(t, n, 1, 5*time.Second)
		if string(ds[0].Payload) != "orphaned" || ds[0].Seq != 1 {
			t.Fatalf("%s delivered %+v", n.addr, ds[0])
		}
		select {
		case d := <-n.bc.Deliveries():
			t.Fatalf("%s delivered %s twice (seq %d)", n.addr, d.MsgID, d.Seq)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// TestCrashMinorityOrderEscaped is the harder half of the same
// window: the dying sequencer's ORDER reached exactly one survivor (a
// minority — nothing deliverable), and that survivor happens to lead the next
// epoch.  Its gather set carries the assignment, so the message must keep its
// original sequence number and be delivered exactly once — neither lost nor
// double-ordered.
func TestCrashMinorityOrderEscaped(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3", "s4", "s5"}
	nodes := makeGroup(t, net, addrs)

	// ORDER (and everything else from s1) reaches only s2.
	for _, to := range addrs[2:] {
		net.BlockLink("s1", to)
	}
	if _, err := nodes[2].bc.Broadcast([]byte("half-ordered")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	net.Crash("s1")
	for _, n := range nodes[1:] {
		n.bc.Suspect("s1")
	}

	for _, n := range nodes[1:] {
		ds := collect(t, n, 1, 5*time.Second)
		if string(ds[0].Payload) != "half-ordered" || ds[0].Seq != 1 {
			t.Fatalf("%s delivered %+v", n.addr, ds[0])
		}
		select {
		case d := <-n.bc.Deliveries():
			t.Fatalf("%s delivered %s twice (seq %d)", n.addr, d.MsgID, d.Seq)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// TestDuplicateAssignmentSuppressed white-boxes Uniform Integrity at the
// delivery path: should the sequencers of two epochs each have assigned one
// message id — a later one sweeping a payload whose earlier ORDER it had not
// seen — the id holds two sequence numbers.  The delivery path must emit the
// lowest one and silently skip the other — on every member identically.
func TestDuplicateAssignmentSuppressed(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	router := gcs.NewRouter(net.Endpoint("s3"))
	// s3 is a non-sequencer follower in both epochs; the router is never
	// started, every protocol step is injected directly.
	b, err := New(Config{Self: "s3", Members: addrs}, router)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	b.handleData(dataMsg{Entries: []dataEntry{{MsgID: "s2/0/1", Payload: []byte("x")}}})
	b.handleOrder(orderMsg{Epoch: 0, BaseSeq: 1, MsgIDs: []string{"s2/0/1"}}, "s1")
	b.handleAck(ackMsg{Epoch: 0, BaseSeq: 1, MsgIDs: []string{"s2/0/1"}}, "s2")
	select {
	case d := <-b.Deliveries():
		if d.Seq != 1 || d.MsgID != "s2/0/1" {
			t.Fatalf("first delivery %+v", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("first assignment never delivered")
	}

	// The epoch-1 sequencer swept the same payload into seq 2 (it had not
	// seen the epoch-0 ORDER above).  The duplicate reaches stability: the
	// cursor must pass it without a second emission.
	b.handleOrder(orderMsg{Epoch: 1, BaseSeq: 2, MsgIDs: []string{"s2/0/1"}}, "s2")
	b.handleAck(ackMsg{Epoch: 1, BaseSeq: 2, MsgIDs: []string{"s2/0/1"}}, "s1")

	// A later message proves the cursor moved past the suppressed duplicate.
	b.handleData(dataMsg{Entries: []dataEntry{{MsgID: "s1/0/9", Payload: []byte("y")}}})
	b.handleOrder(orderMsg{Epoch: 1, BaseSeq: 3, MsgIDs: []string{"s1/0/9"}}, "s2")
	b.handleAck(ackMsg{Epoch: 1, BaseSeq: 3, MsgIDs: []string{"s1/0/9"}}, "s1")

	select {
	case d := <-b.Deliveries():
		if d.Seq != 3 || d.MsgID != "s1/0/9" {
			t.Fatalf("got %+v, want seq 3 %q — the duplicate at seq 2 must be skipped silently", d, "s1/0/9")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery cursor stuck on the suppressed duplicate")
	}
	if got := b.Stats().Delivered; got != 2 {
		t.Fatalf("Delivered = %d, want 2 (the duplicate must not count)", got)
	}
}

// TestCrashTakeoverVoidsOlderOrders pins the minOrderEpoch floor: after a
// crash takeover, a straggler ORDER from the pre-crash epoch must be ignored
// even if it would otherwise reach ack-majority — the gather majority
// promised to forget it.
func TestCrashTakeoverVoidsOlderOrders(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	router := gcs.NewRouter(net.Endpoint("s2"))
	b, err := New(Config{Self: "s2", Members: addrs}, router)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	b.handleData(dataMsg{Entries: []dataEntry{{MsgID: "s3/0/1", Payload: []byte("x")}}})
	// s1 crashes; s2 takes over (epoch 1) and completes its gather from a
	// majority that never saw any epoch-0 ORDER.
	b.Suspect("s1")
	b.handleState(stateMsg{Epoch: 1}, "s3")
	if b.gatheringNow() {
		t.Fatal("gather should be complete with states from s2 and s3")
	}

	// The pre-crash sequencer's ORDER arrives late: it must be void.
	b.handleOrder(orderMsg{Epoch: 0, BaseSeq: 5, MsgIDs: []string{"s3/0/1"}}, "s1")
	b.mu.Lock()
	adopted := b.win.get(5)
	b.mu.Unlock()
	if adopted != nil {
		t.Fatal("an epoch-0 ORDER was adopted after the epoch-1 crash takeover voided it")
	}
}
