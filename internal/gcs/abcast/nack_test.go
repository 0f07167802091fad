package abcast

import (
	"fmt"
	"testing"
	"time"

	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/transport"
)

// makeGroupCfg is makeGroup with per-node config knobs (beyond Self/Members).
func makeGroupCfg(t *testing.T, net *transport.MemNetwork, addrs []string, tweak func(*Config)) []*node {
	t.Helper()
	return makeGroupOn(t, addrs, tweak, net.Endpoint)
}

// makeGroupOn is makeGroupCfg over caller-supplied endpoints.
func makeGroupOn(t *testing.T, addrs []string, tweak func(*Config), endpoint func(addr string) transport.Endpoint) []*node {
	t.Helper()
	nodes := make([]*node, 0, len(addrs))
	for _, addr := range addrs {
		router := gcs.NewRouter(endpoint(addr))
		cfg := Config{Self: addr, Members: addrs}
		if tweak != nil {
			tweak(&cfg)
		}
		bc, err := New(cfg, router)
		if err != nil {
			t.Fatal(err)
		}
		router.Start()
		nodes = append(nodes, &node{addr: addr, router: router, bc: bc})
		t.Cleanup(func() {
			bc.Close()
			router.Stop()
		})
	}
	return nodes
}

// TestNackRecoversBlockedDataFanout is the regression test for the
// order-without-data stall: mid-batch, the sequencer's ORDERs reach one member
// without the payloads they carry (a tap strips them), and the sender's link
// to that member is cut.  Before the NACK protocol this wedged the member's
// delivery cursor until a state transfer; now the member requests the payload
// by id after a bounded wait and any holder (here the sequencer, since the
// sender's answers are cut) re-sends it.
func TestNackRecoversBlockedDataFanout(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes, taps := makeTappedGroup(t, net, addrs, func(cfg *Config) {
		cfg.NackDelay = 2 * time.Millisecond
	}, nil)
	sender, victim := nodes[1], nodes[2] // s1 stays sequencer and holder

	// A healthy prefix first, so the cut lands mid-batch.
	const healthy, blocked = 3, 4
	for i := 0; i < healthy; i++ {
		if _, err := sender.bc.Broadcast([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, victim, healthy, 2*time.Second)

	taps[0].setEdit(stripPayloadsTo(victim.addr))
	net.BlockLink(sender.addr, victim.addr)
	for i := 0; i < blocked; i++ {
		if _, err := sender.bc.Broadcast([]byte(fmt.Sprintf("cut-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	ds := collect(t, victim, blocked, 5*time.Second)
	for i, d := range ds {
		if want := fmt.Sprintf("cut-%d", i); string(d.Payload) != want {
			t.Fatalf("victim delivery %d = %q, want %q", i, d.Payload, want)
		}
	}

	if got := victim.bc.Stats().NacksSent; got == 0 {
		t.Fatal("victim delivered the stripped payloads without sending a NACK")
	}
	if got := nodes[0].bc.Stats().Retransmits; got == 0 {
		t.Fatal("holder (sequencer) answered no retransmission requests")
	}

	// The ORDERs carry their payloads again and no stall remains.
	taps[0].setEdit(nil)
	net.UnblockLink(sender.addr, victim.addr)
	if _, err := sender.bc.Broadcast([]byte("healed")); err != nil {
		t.Fatal(err)
	}
	if d := collect(t, victim, 1, 2*time.Second); string(d[0].Payload) != "healed" {
		t.Fatalf("post-heal delivery = %q", d[0].Payload)
	}
}

// TestNackClearsWithoutStallAfterRetransmit forces repeated
// order-without-data stalls with heals in between, proving the NACK timer's
// arm/disarm lifecycle survives many cycles without wedging the cursor.
func TestNackClearsWithoutStallAfterRetransmit(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes, taps := makeTappedGroup(t, net, addrs, func(cfg *Config) {
		cfg.NackDelay = 2 * time.Millisecond
	}, nil)
	sender, victim := nodes[1], nodes[2]

	// Repeated strip/heal cycles: each stripped payload recovers via NACK
	// and the cursor never sticks, proving the arm/disarm lifecycle re-arms
	// cleanly across stalls.
	for round := 0; round < 3; round++ {
		taps[0].setEdit(stripPayloadsTo(victim.addr))
		if _, err := sender.bc.Broadcast([]byte(fmt.Sprintf("round-%d", round))); err != nil {
			t.Fatal(err)
		}
		ds := collect(t, victim, 1, 5*time.Second)
		if want := fmt.Sprintf("round-%d", round); string(ds[0].Payload) != want {
			t.Fatalf("round %d delivered %q", round, ds[0].Payload)
		}
		taps[0].setEdit(nil)
	}
	if got := victim.bc.Stats().NacksSent; got == 0 {
		t.Fatal("no NACKs sent across three forced stalls")
	}
}

// TestDataWithoutOrderIsResent is the regression test for the other
// retransmission gap: the sender's DATA is lost on its link to the sequencer
// (here a one-way link fault; over TCP, a frame in flight across a
// reconnect), so nobody will ever order the payload.  The sender must notice
// its own payload is still unordered after NackDelay and re-send it.
func TestDataWithoutOrderIsResent(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroupCfg(t, net, addrs, func(cfg *Config) {
		cfg.NackDelay = 2 * time.Millisecond
	})
	sender := nodes[1] // s1 is the sequencer

	net.BlockLink(sender.addr, "s1")
	if _, err := sender.bc.Broadcast([]byte("lost on the way")); err != nil {
		t.Fatal(err)
	}
	net.UnblockLink(sender.addr, "s1")

	for _, n := range nodes {
		ds := collect(t, n, 1, 5*time.Second)
		if string(ds[0].Payload) != "lost on the way" || ds[0].Seq != 1 {
			t.Fatalf("%s delivered %+v", n.addr, ds[0])
		}
	}
	if got := sender.bc.Stats().Retransmits; got == 0 {
		t.Fatal("the payload was ordered without the sender re-sending it")
	}
	// Ordered now, the payload is not re-sent again.
	settled := sender.bc.Stats().Retransmits
	time.Sleep(10 * time.Millisecond)
	if got := sender.bc.Stats().Retransmits; got != settled {
		t.Fatalf("sender kept re-sending an ordered payload: %d re-sends, was %d", got, settled)
	}
}

// TestDataGoesOnlyToTheFollowedSequencer: a member sends its DATA to the
// sequencer whose ORDERs it accepts and to nobody else — not to the sequencer
// of an epoch it reached by a lone false suspicion — and the sequencer sends
// none for its own broadcasts.  After a takeover the DATA follows the new
// sequencer.
func TestDataGoesOnlyToTheFollowedSequencer(t *testing.T) {
	net := transport.NewMemNetwork()
	nodes, taps := makeTappedGroup(t, net, groupAddrs(3), nil, nil)
	nodes[2].bc.Suspect("s1") // s3's epoch names s2, its floor still s1
	nodes[2].bc.Unsuspect("s1")
	broadcastFrom := func(senders []*node, everywhere []*node) {
		t.Helper()
		for _, nd := range senders {
			if _, err := nd.bc.Broadcast([]byte(nd.addr)); err != nil {
				t.Fatal(err)
			}
			for _, other := range everywhere {
				collect(t, other, 1, 5*time.Second)
			}
		}
	}
	dataTo := func(tp *tap, mark int) (to []string) {
		for _, m := range tp.log()[mark:] {
			if m.Type == MsgData {
				to = append(to, m.To)
			}
		}
		return to
	}
	broadcastFrom(nodes, nodes)
	for i, want := range []string{"[]", "[s1]", "[s1]"} {
		if got := fmt.Sprint(dataTo(taps[i], 0)); got != want {
			t.Fatalf("%s sent DATA to %s, want %s", nodes[i].addr, got, want)
		}
	}

	net.Crash("s1")
	live := nodes[1:]
	marks := []int{len(taps[1].log()), len(taps[2].log())}
	for _, nd := range live {
		nd.bc.Suspect("s1")
	}
	broadcastFrom(live, live)
	for i, want := range []string{"[]", "[s2]"} {
		if got := fmt.Sprint(dataTo(taps[i+1], marks[i])); got != want {
			t.Fatalf("after the takeover %s sent DATA to %s, want %s", live[i].addr, got, want)
		}
	}
}

// TestDataResentToEveryMemberAfterNackDelay: a member that missed a takeover
// still follows the old sequencer, and its link there is cut, so its DATA
// reaches nobody who orders it.  After NackDelay the member re-sends the
// payload to every other member, the new sequencer among them, and the
// payload is ordered and delivered everywhere.
func TestDataResentToEveryMemberAfterNackDelay(t *testing.T) {
	net := transport.NewMemNetwork()
	nodes, taps := makeTappedGroup(t, net, groupAddrs(3), func(cfg *Config) {
		cfg.NackDelay = 2 * time.Millisecond
	}, nil)
	s2, s3 := nodes[1], nodes[2]

	net.BlockLink("s2", "s3") // s3 never hears of the takeover
	s2.bc.Suspect("s1")       // s2 takes over, gathering from s1
	waitFor(t, 2*time.Second, func() bool { return !s2.bc.gatheringNow() })
	if got := s2.bc.Sequencer(); got != "s2" {
		t.Fatalf("the takeover made %s the sequencer, want s2", got)
	}
	net.UnblockLink("s2", "s3")
	net.BlockLink("s3", "s1")

	if _, err := s3.bc.Broadcast([]byte("stray")); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if d := collect(t, nd, 1, 5*time.Second)[0]; string(d.Payload) != "stray" || d.Seq != 1 {
			t.Fatalf("%s delivered %+v", nd.addr, d)
		}
	}
	var first transport.Message
	for _, m := range taps[2].log() {
		if m.Type == MsgData {
			first = m
			break
		}
	}
	if first.To != "s1" {
		t.Fatalf("s3's first DATA went to %q, want s1, the sequencer it followed", first.To)
	}
	if got := s3.bc.Stats().Retransmits; got == 0 {
		t.Fatal("the payload was ordered without s3 re-sending it")
	}
}
