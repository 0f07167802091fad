package abcast

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"groupsafe/internal/gcs/transport"
)

// Urgent and lazy votes.  In a group of three a non-sequencer holds a majority
// the moment it stores an ORDER, so the only member that ever waits on a vote
// is the sequencer of the order's epoch: it is sent every vote at once, the
// third member hears of it within delayCap.  These tests run over MemNetwork
// behind the taps of twohop_test.go.

func ackOf(t *testing.T, m transport.Message) ackMsg {
	t.Helper()
	var a ackMsg
	if err := decodeAck(m.Payload, &a); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestUrgentRecipientIsTheSequencerOfTheOrdersEpoch asks sendAck itself, for
// every group size on either side of majority() > 2 and for epochs other than
// the member's current one: a vote is urgent for the sequencer of the epoch
// the order was assigned in — a handed-over sequencer still waits for the
// votes on its last assignments — and for everybody else only when the ORDER
// and the member's own vote are no majority.
func TestUrgentRecipientIsTheSequencerOfTheOrdersEpoch(t *testing.T) {
	for n := 2; n <= 5; n++ {
		addrs := groupAddrs(n)
		nodes, taps := makeTappedGroup(t, transport.NewMemNetwork(), addrs, nil, nil)
		for epoch := uint64(0); epoch < uint64(2*n); epoch++ {
			sequencer := addrs[int(epoch)%n]
			for i, nd := range nodes {
				if nd.addr == sequencer {
					continue // (the ORDER is its vote)
				}
				mark := len(taps[i].log())
				nd.bc.sendAck(ackMsg{Epoch: epoch, BaseSeq: 1, MsgIDs: []string{"x"}}, false)
				urgent := taps[i].log()[mark:]
				nd.bc.sendAck(ackMsg{Epoch: epoch, BaseSeq: 1, MsgIDs: []string{"x"}}, true)
				lazy := taps[i].log()[mark+len(urgent):]

				var wantUrgent, wantLazy []string
				for _, m := range addrs {
					switch {
					case m == nd.addr:
					case m == sequencer || n/2+1 > 2:
						wantUrgent = append(wantUrgent, m)
					default:
						wantLazy = append(wantLazy, m)
					}
				}
				to := func(ms []transport.Message) (out []string) {
					for _, m := range ms {
						out = append(out, m.To)
					}
					return out
				}
				if got := to(urgent); fmt.Sprint(got) != fmt.Sprint(wantUrgent) {
					t.Fatalf("n=%d, %s, epoch %d: the urgent ACK went to %v, want %v", n, nd.addr, epoch, got, wantUrgent)
				}
				if got := to(lazy); fmt.Sprint(got) != fmt.Sprint(wantLazy) {
					t.Fatalf("n=%d, %s, epoch %d: the lazy ACK went to %v, want %v", n, nd.addr, epoch, got, wantLazy)
				}
				if n != 3 && len(wantLazy) != 0 {
					t.Fatalf("n=%d: only of three does a member hold a majority that another's vote is not part of", n)
				}
			}
		}
	}
}

// TestLazyAcksAmortiseOverTheirWindow: k broadcasts from a non-sequencer, one
// at a time, cost 5k prompt frames in a group of three — a DATA, two ORDERs,
// two ACKs to the sequencer — and each non-sequencer tells the other of
// its votes once per lapsed delayCap — in ACKs that together name every
// sequence number exactly once.
func TestLazyAcksAmortiseOverTheirWindow(t *testing.T) {
	const k = 200 // below ackMergeBound: only the window closes a lazy ACK
	nodes, taps := makeTappedGroup(t, transport.NewMemNetwork(), groupAddrs(3), func(cfg *Config) { cfg.NackDelay = time.Minute }, nil)
	start := time.Now()
	for i := 0; i < k; i++ {
		if _, err := nodes[1].bc.Broadcast([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		for _, nd := range nodes { // everywhere: the next ORDER finds no ACK held for a merge
			collect(t, nd, 1, 2*time.Second)
		}
	}
	// named returns how many lazy ACKs the member sent and up to where they
	// cover the sequence without a gap.  (Sorted: an ACK is taken under the
	// lock and sent outside it, so one whose sender stalls in between — a
	// garbage collection will do — is overtaken by the next.)
	named := func(tp *tap) (acks int, next uint64) {
		var ranges []ackMsg
		for _, m := range tp.log() {
			if isAck(m) && m.To != "s1" {
				ranges = append(ranges, ackOf(t, m))
			}
		}
		sort.Slice(ranges, func(i, j int) bool { return ranges[i].BaseSeq < ranges[j].BaseSeq })
		next = 1
		for _, a := range ranges {
			if a.BaseSeq < next {
				t.Fatalf("%s named seq %d in two lazy ACKs", tp.Addr(), a.BaseSeq)
			}
			if a.BaseSeq == next {
				next += uint64(len(a.MsgIDs))
			}
		}
		return len(ranges), next
	}
	waitFor(t, 2*time.Second, func() bool {
		_, next2 := named(taps[1])
		_, next3 := named(taps[2])
		return next2 == k+1 && next3 == k+1
	})
	windows := int(time.Since(start)/delayCap) + 1
	total, byType := sentByType(taps)
	lazy := 0
	for _, tp := range taps[1:] {
		acks, _ := named(tp)
		if acks > windows {
			t.Fatalf("%s sent %d lazy ACKs in %d windows of delayCap", tp.Addr(), acks, windows)
		}
		lazy += acks
	}
	if prompt := total - lazy; prompt != 5*k || byType[MsgData] != k || byType[MsgOrder] != 2*k {
		t.Fatalf("%d broadcasts cost %d prompt frames (%v), want %d", k, prompt, byType, 5*k)
	}
	t.Logf("%d broadcasts: %d prompt frames, %d lazy ACKs over %d windows", k, total-lazy, lazy, windows)
}

// TestLazyAcksCarryTheCursor: nobody's delivery needs an ACK between two
// non-sequencers — with every one of them lost, all members deliver a thousand
// broadcasts in the same order — but the two learn each other's delivery
// cursor from nothing else: their windows stop pruning, and come back once
// the ACKs get through again.
func TestLazyAcksCarryTheCursor(t *testing.T) {
	var healed atomic.Bool
	nodes, taps := makeTappedGroup(t, transport.NewMemNetwork(), groupAddrs(3), nil, func(m transport.Message) bool {
		return isAck(m) && m.To != "s1" && !healed.Load()
	})
	const perSender = 334
	broadcastConcurrently(t, nodes, perSender)
	assertUniformTotalOrder(t, nodes, 3*perSender)
	for _, nd := range nodes[1:] {
		if records := nd.bc.retained(); records != 3*perSender {
			t.Fatalf("%s retains %d records having heard no cursor from the other non-sequencer, want all %d", nd.addr, records, 3*perSender)
		}
	}
	if nodes[0].bc.retained() == 3*perSender {
		t.Fatal("the sequencer, whom every vote reaches at once, did not prune either")
	}

	healed.Store(true)
	for _, tp := range taps { // what was held is lost
		tp.mu.Lock()
		tp.held = nil
		tp.mu.Unlock()
	}
	if _, err := nodes[0].bc.Broadcast([]byte("after")); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		collect(t, nd, 1, 2*time.Second)
	}
	waitFor(t, 2*time.Second, func() bool {
		return nodes[1].bc.retained() < minRing && nodes[2].bc.retained() < minRing
	})
}

// TestLazyAcksDoNotPinTheWindow: under a steady stream from one non-sequencer
// the other's window tracks the stream — the sender's cursor is at most a
// delayCap or ackMergeBound orders old — and never outgrows the smallest ring.
func TestLazyAcksDoNotPinTheWindow(t *testing.T) {
	const count, inflight = 10000, 64
	nodes := makeGroup(t, transport.NewMemNetwork(), groupAddrs(3))
	slots := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	var widest atomic.Int64
	for _, nd := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.After(time.Minute)
			for i := 0; i < count; i++ {
				select {
				case <-nd.bc.Deliveries():
				case <-deadline:
					t.Errorf("%s delivered %d of %d", nd.addr, i, count)
					return
				}
				switch nd {
				case nodes[1]:
					<-slots
				case nodes[2]:
					widest.Store(max(widest.Load(), int64(nd.bc.retained())))
				}
			}
		}()
	}
	for i := 0; i < count && !t.Failed(); i++ {
		select {
		case slots <- struct{}{}:
		case <-time.After(time.Minute):
			t.Fatal("the sender's deliveries stalled")
		}
		if _, err := nodes[1].bc.Broadcast([]byte("steady")); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if w := widest.Load(); w >= minRing {
		t.Fatalf("s3's window spanned %d sequence numbers under a steady stream from s2, want fewer than %d", w, minRing)
	}
	t.Logf("widest window at s3: %d", widest.Load())
}

// TestCloseSendsThePendingLazyAck: Close hands both pending ACKs to the
// network — the merged one that was waiting for a neighbour and the lazy one
// that was waiting out its window.
func TestCloseSendsThePendingLazyAck(t *testing.T) {
	for attempt := 0; ; attempt++ {
		nodes, taps := makeTappedGroup(t, transport.NewMemNetwork(), groupAddrs(3), nil, nil)
		b := nodes[1].bc
		// A payload without an order: the next ORDER is worth waiting for.
		b.handleData(dataMsg{Entries: []dataEntry{{MsgID: "s3/0/2", Payload: []byte("later")}}})
		b.handleOrder(orderMsg{Epoch: 0, BaseSeq: 1, MsgIDs: []string{"s3/0/1"}}, "s1")
		// Stop both windows, so that nothing but Close can send what they hold.
		b.mu.Lock()
		frozen := b.ackPend.valid && b.ackPend.timer.Stop() && b.ackLazy.valid && b.ackLazy.timer.Stop()
		b.mu.Unlock()
		if !frozen {
			if attempt == 20 {
				t.Fatal("the ACK windows lapsed before they could be stopped, 20 times over")
			}
			continue
		}
		if _, byType := sentByType(taps); byType[MsgAck] != 0 {
			t.Fatalf("an ACK left while both were pending: %v", byType)
		}
		b.Close()
		var to []string
		for _, m := range taps[1].log() {
			if a := ackOf(t, m); a.BaseSeq != 1 || len(a.MsgIDs) != 1 || a.MsgIDs[0] != "s3/0/1" {
				t.Fatalf("Close sent %s %+v", m.Type, a)
			}
			to = append(to, m.To)
		}
		if fmt.Sprint(to) != "[s1 s3]" {
			t.Fatalf("Close sent the pending ACKs to %v, want the urgent one to s1 and then the lazy one to s3", to)
		}
		return
	}
}
