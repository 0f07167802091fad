package abcast

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/transport"
)

// node bundles a broadcaster with its router for tests.
type node struct {
	addr   string
	router *gcs.Router
	bc     *Broadcaster
}

func makeGroup(t *testing.T, net *transport.MemNetwork, addrs []string) []*node {
	t.Helper()
	return makeGroupCfg(t, net, addrs, nil)
}

func collect(t *testing.T, n *node, count int, timeout time.Duration) []Delivery {
	t.Helper()
	var out []Delivery
	deadline := time.After(timeout)
	for len(out) < count {
		select {
		case d := <-n.bc.Deliveries():
			out = append(out, d)
		case <-deadline:
			t.Fatalf("%s: delivered %d of %d messages before timeout", n.addr, len(out), count)
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	net := transport.NewMemNetwork()
	router := gcs.NewRouter(net.Endpoint("a"))
	if _, err := New(Config{Self: "a", Members: nil}, router); err == nil {
		t.Fatal("empty member list should be rejected")
	}
	if _, err := New(Config{Self: "a", Members: []string{"b", "c"}}, router); err == nil {
		t.Fatal("self missing from member list should be rejected")
	}
	bc, err := New(Config{Self: "a", Members: []string{"a", "b", "c"}}, router)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Self() != "a" || len(bc.Members()) != 3 {
		t.Fatal("accessors wrong")
	}
	if bc.Sequencer() != "a" || bc.Epoch() != 0 {
		t.Fatal("initial sequencer should be the first member at epoch 0")
	}
}

func TestBroadcastDeliversEverywhere(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)

	if _, err := nodes[1].bc.Broadcast([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		ds := collect(t, n, 1, 2*time.Second)
		if string(ds[0].Payload) != "hello" || ds[0].Seq != 1 {
			t.Fatalf("%s delivered %+v", n.addr, ds[0])
		}
	}
	if nodes[0].bc.Stats().Delivered != 1 {
		t.Fatal("stats not updated")
	}
}

// TestRetiredHandoffFrameIsIgnored: a peer still running the build that had
// planned sequencer rotation, started with that flag, sends "ab.handoff"
// frames (epoch, next sequence number, order-epoch floor as uvarints).  A
// member that receives one keeps its epoch and its sequencer and goes on
// ordering and delivering: the role moves by takeover only.
func TestRetiredHandoffFrameIsIgnored(t *testing.T) {
	net := transport.NewMemNetwork()
	nodes := makeGroup(t, net, []string{"s1", "s2", "s3"})

	handoff := transport.Message{Type: "ab.handoff", Payload: []byte{1, 100, 0}} // to epoch 1, next sequence 100, floor 0
	for _, to := range []string{"s2", "s3"} {
		if err := nodes[0].router.Send(to, handoff); err != nil {
			t.Fatal(err)
		}
	}
	// Links are FIFO: whoever delivers this broadcast has handled the frame.
	if _, err := nodes[0].bc.Broadcast([]byte("next")); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if ds := collect(t, n, 1, 2*time.Second); string(ds[0].Payload) != "next" || ds[0].Seq != 1 {
			t.Fatalf("%s delivered %+v, want the broadcast at seq 1", n.addr, ds[0])
		}
		if e, s := n.bc.Epoch(), n.bc.Sequencer(); e != 0 || s != "s1" {
			t.Fatalf("%s is at epoch %d following %s after a HANDOFF frame, want epoch 0 and s1", n.addr, e, s)
		}
	}
}

func TestTotalOrderAcrossSenders(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3", "s4", "s5"}
	nodes := makeGroup(t, net, addrs)

	const perSender = 10
	for i := 0; i < perSender; i++ {
		for _, n := range nodes {
			payload := []byte(fmt.Sprintf("%s-%d", n.addr, i))
			if _, err := n.bc.Broadcast(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := perSender * len(nodes)
	sequences := make([][]string, len(nodes))
	for i, n := range nodes {
		ds := collect(t, n, total, 5*time.Second)
		seq := make([]string, len(ds))
		for j, d := range ds {
			if d.Seq != uint64(j+1) {
				t.Fatalf("%s: delivery %d has seq %d", n.addr, j, d.Seq)
			}
			seq[j] = d.MsgID
		}
		sequences[i] = seq
	}
	// Uniform total order: every node delivers the same message ids in the
	// same order.
	for i := 1; i < len(sequences); i++ {
		for j := range sequences[0] {
			if sequences[i][j] != sequences[0][j] {
				t.Fatalf("order mismatch between %s and %s at position %d", addrs[0], addrs[i], j)
			}
		}
	}
}

func TestUniformIntegrityNoDuplicates(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)
	for i := 0; i < 20; i++ {
		nodes[i%3].bc.Broadcast([]byte{byte(i)})
	}
	for _, n := range nodes {
		ds := collect(t, n, 20, 5*time.Second)
		seen := make(map[string]bool)
		for _, d := range ds {
			if seen[d.MsgID] {
				t.Fatalf("%s delivered %s twice", n.addr, d.MsgID)
			}
			seen[d.MsgID] = true
		}
	}
}

func TestValidityOnlyBroadcastMessagesDelivered(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)
	nodes[0].bc.Broadcast([]byte("real"))
	ds := collect(t, nodes[2], 1, 2*time.Second)
	if string(ds[0].Payload) != "real" {
		t.Fatalf("unexpected payload %q", ds[0].Payload)
	}
	select {
	case d := <-nodes[2].bc.Deliveries():
		t.Fatalf("spurious delivery %+v", d)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestDeliveryDespiteMinorityCrash(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3", "s4", "s5"}
	nodes := makeGroup(t, net, addrs)

	// Crash a non-sequencer minority (s4, s5).
	net.Crash("s4")
	net.Crash("s5")
	for _, n := range nodes[:3] {
		n.bc.Suspect("s4")
		n.bc.Suspect("s5")
	}
	nodes[1].bc.Broadcast([]byte("survives"))
	for _, n := range nodes[:3] {
		ds := collect(t, n, 1, 2*time.Second)
		if string(ds[0].Payload) != "survives" {
			t.Fatalf("%s delivered %q", n.addr, ds[0].Payload)
		}
	}
}

func TestSequencerFailover(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)

	// A first message establishes normal operation.
	nodes[0].bc.Broadcast([]byte("before"))
	for _, n := range nodes {
		collect(t, n, 1, 2*time.Second)
	}

	// Crash the sequencer (s1).
	net.Crash("s1")
	for _, n := range nodes[1:] {
		n.bc.Suspect("s1")
	}
	// The new sequencer is s2 (epoch 1).
	waitFor(t, 2*time.Second, func() bool {
		return nodes[1].bc.Sequencer() == "s2" && nodes[2].bc.Sequencer() == "s2"
	})

	// Broadcasts still get ordered and delivered by the survivors.
	nodes[2].bc.Broadcast([]byte("after-failover"))
	for _, n := range nodes[1:] {
		ds := collect(t, n, 1, 3*time.Second)
		if string(ds[0].Payload) != "after-failover" {
			t.Fatalf("%s delivered %q", n.addr, ds[0].Payload)
		}
		if ds[0].Seq != 2 {
			t.Fatalf("%s: seq = %d, want 2 (numbering continues)", n.addr, ds[0].Seq)
		}
	}
	if nodes[1].bc.Epoch() == 0 {
		t.Fatal("epoch did not advance after failover")
	}
}

func TestFailoverPreservesOrdersAcknowledgedBeforeCrash(t *testing.T) {
	// The pre-crash message was fully delivered by the survivors; after the
	// sequencer crashes, new messages must receive later sequence numbers
	// (the new sequencer learns the old orders from the majority).
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3", "s4", "s5"}
	nodes := makeGroup(t, net, addrs)

	for i := 0; i < 5; i++ {
		nodes[1].bc.Broadcast([]byte{byte(i)})
	}
	for _, n := range nodes {
		collect(t, n, 5, 3*time.Second)
	}
	net.Crash("s1")
	for _, n := range nodes[1:] {
		n.bc.Suspect("s1")
	}
	nodes[3].bc.Broadcast([]byte("post"))
	for _, n := range nodes[1:] {
		ds := collect(t, n, 1, 3*time.Second)
		if ds[0].Seq != 6 {
			t.Fatalf("%s: post-failover seq = %d, want 6", n.addr, ds[0].Seq)
		}
	}
}

func TestUnsuspectClearsSuspicion(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)
	nodes[1].bc.Suspect("s3")
	nodes[1].bc.Unsuspect("s3")
	// Suspecting a non-sequencer does not change the epoch.
	if nodes[1].bc.Epoch() != 0 || nodes[1].bc.Sequencer() != "s1" {
		t.Fatal("suspecting a non-sequencer must not change the epoch")
	}
}

func TestBroadcastAfterClose(t *testing.T) {
	net := transport.NewMemNetwork()
	nodes := makeGroup(t, net, []string{"s1", "s2", "s3"})
	nodes[0].bc.Close()
	if _, err := nodes[0].bc.Broadcast([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("broadcast after close: %v", err)
	}
}

func TestManyMessagesThroughput(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)
	const count = 200
	go func() {
		for i := 0; i < count; i++ {
			nodes[i%3].bc.Broadcast([]byte{byte(i)})
		}
	}()
	for _, n := range nodes {
		ds := collect(t, n, count, 10*time.Second)
		for j, d := range ds {
			if d.Seq != uint64(j+1) {
				t.Fatalf("%s: gap in sequence at %d", n.addr, j)
			}
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached before timeout")
}

// TestLoneFalseSuspicionKeepsFollowingTheSequencer: one member wrongly
// suspects the sequencer while everyone else keeps following it.  The
// suspecting member has promised nothing to any takeover, so it must keep
// accepting the live sequencer's orders — its own broadcasts included.
func TestLoneFalseSuspicionKeepsFollowingTheSequencer(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)
	nodes[2].bc.Suspect("s1")
	nodes[2].bc.Unsuspect("s1")
	if _, err := nodes[2].bc.Broadcast([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		ds := collect(t, n, 1, 3*time.Second)
		if string(ds[0].Payload) != "still here" || ds[0].Seq != 1 {
			t.Fatalf("%s delivered %+v", n.addr, ds[0])
		}
	}
}
