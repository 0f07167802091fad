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
// order-without-data stall: the original sender's DATA link to one member is
// cut mid-batch, so that member keeps receiving the sequencer's ORDER
// assignments for payloads it never got.  Before the NACK protocol this
// wedged the member's delivery cursor until a state transfer; now the member
// requests the payload by id after a bounded wait and any holder (here the
// sequencer, whose own copy arrived before the cut) re-sends it.
func TestNackRecoversBlockedDataFanout(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroupCfg(t, net, addrs, func(cfg *Config) {
		cfg.NackDelay = 2 * time.Millisecond
	})
	sender, victim := nodes[1], nodes[2] // s1 stays sequencer and holder

	// A healthy prefix first, so the cut lands mid-batch.
	const healthy, blocked = 3, 4
	for i := 0; i < healthy; i++ {
		if _, err := sender.bc.Broadcast([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	collect(t, victim, healthy, 2*time.Second)

	// Cut the sender→victim link: the victim still sees ORDER (from the
	// sequencer s1) but never the sender's DATA fan-out, and the sender's
	// own retransmission answers are dropped too — only s1 can help.
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
		t.Fatal("victim delivered the blocked payloads without sending a NACK")
	}
	if got := nodes[0].bc.Stats().Retransmits; got == 0 {
		t.Fatal("holder (sequencer) answered no retransmission requests")
	}

	// The link heals and ordinary fan-out resumes without residual stalls.
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
	nodes := makeGroupCfg(t, net, addrs, func(cfg *Config) {
		cfg.NackDelay = 2 * time.Millisecond
	})
	sender, victim := nodes[1], nodes[2]

	// Repeated cut/heal cycles: each blocked payload recovers via NACK and
	// the cursor never sticks, proving the arm/disarm lifecycle re-arms
	// cleanly across stalls.
	for round := 0; round < 3; round++ {
		net.BlockLink(sender.addr, victim.addr)
		if _, err := sender.bc.Broadcast([]byte(fmt.Sprintf("round-%d", round))); err != nil {
			t.Fatal(err)
		}
		ds := collect(t, victim, 1, 5*time.Second)
		if want := fmt.Sprintf("round-%d", round); string(ds[0].Payload) != want {
			t.Fatalf("round %d delivered %q", round, ds[0].Payload)
		}
		net.UnblockLink(sender.addr, victim.addr)
	}
	if got := victim.bc.Stats().NacksSent; got == 0 {
		t.Fatal("no NACKs sent across three forced stalls")
	}
}

// TestDataWithoutOrderIsResent is the regression test for the other
// retransmission gap: the sender's first DATA is lost on its link to the
// sequencer (here a one-way link fault; over TCP, a frame in flight across a
// reconnect), so every member but the sequencer holds the payload and nobody
// will ever order it.  The sender must notice its own payload is still
// unordered after NackDelay and re-send it to the sequencer.
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
