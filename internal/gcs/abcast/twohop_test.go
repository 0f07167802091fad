package abcast

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"
	"time"

	"groupsafe/internal/gcs/transport"
)

// tap is a counting, filtering endpoint wrapper: it records every message its
// member hands to the transport, in transport order, and holds back the ones
// its filter selects until they are released (never, for a drop).
type tap struct {
	transport.Endpoint

	stall string // message type that dawdles on its way to the transport

	mu   sync.Mutex
	sent []transport.Message
	at   []time.Time // when sent[i] was handed over
	hold func(transport.Message) bool
	held []transport.Message
}

func (tp *tap) Send(to string, m transport.Message) error {
	m.From, m.To = tp.Addr(), to
	if m.Type == tp.stall {
		time.Sleep(20 * time.Microsecond) // let whoever could overtake this message try
	}
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.sent, tp.at = append(tp.sent, m), append(tp.at, time.Now())
	if tp.hold != nil && tp.hold(m) {
		tp.held = append(tp.held, m)
		return nil
	}
	return tp.Endpoint.Send(to, m)
}

// release stops holding and forwards what was held.
func (tp *tap) release() {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	tp.hold = nil
	for _, m := range tp.held {
		_ = tp.Endpoint.Send(m.To, m)
	}
	tp.held = nil
}

// log returns a copy of what the member has sent so far.
func (tp *tap) log() []transport.Message {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return append([]transport.Message(nil), tp.sent...)
}

// sentFrame is one entry of a tap's log.
type sentFrame struct {
	transport.Message
	at time.Time
}

func (tp *tap) frames() []sentFrame {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := make([]sentFrame, len(tp.sent))
	for i, m := range tp.sent {
		out[i] = sentFrame{m, tp.at[i]}
	}
	return out
}

func isAck(m transport.Message) bool { return m.Type == MsgAck }

// makeTappedGroup is makeGroupCfg behind taps holding what hold selects.
// Whatever the test does, no member may ever address itself: a member's own
// protocol steps are local.
func makeTappedGroup(t *testing.T, net *transport.MemNetwork, addrs []string, tweak func(*Config), hold func(transport.Message) bool) ([]*node, []*tap) {
	t.Helper()
	var taps []*tap
	nodes := makeGroupOn(t, addrs, tweak, func(addr string) transport.Endpoint {
		tp := &tap{Endpoint: net.Endpoint(addr), hold: hold}
		taps = append(taps, tp)
		return tp
	})
	// Registered last, so it runs before the group is closed.
	t.Cleanup(func() {
		for _, tp := range taps {
			for _, m := range tp.log() {
				if m.To == tp.Addr() {
					t.Errorf("%s handed a %s addressed to itself to the transport", tp.Addr(), m.Type)
				}
			}
		}
	})
	return nodes, taps
}

// sentByType counts what the whole group has handed to the transport.
func sentByType(taps []*tap) (total int, byType map[string]int) {
	byType = make(map[string]int)
	for _, tp := range taps {
		for _, m := range tp.log() {
			byType[m.Type]++
			total++
		}
	}
	return total, byType
}

func expectNoDelivery(t *testing.T, n *node, wait time.Duration, why string) {
	t.Helper()
	select {
	case d := <-n.bc.Deliveries():
		t.Fatalf("%s delivered %s at seq %d: %s", n.addr, d.MsgID, d.Seq, why)
	case <-time.After(wait):
	}
}

// votersOf returns the voters mask the member holds for seq.
func (b *Broadcaster) votersOf(seq uint64) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r := b.win.get(seq); r != nil {
		return r.voters
	}
	return 0
}

func groupAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("s%d", i+1)
	}
	return addrs
}

// TestUrgentFramesOfAnUnbatchedBroadcast pins the message bill of one
// broadcast, whoever the delegate is: n-1 DATA, n-1 ORDER and (n-1)² ACKs — the
// sequencer's ORDER is its vote, so it acknowledges nothing — and never a
// frame to self.  Of five, every member waits on every vote and all n²-1
// frames leave at once.  Of three, only the sequencer does: 3(n-1) = 6 frames
// leave at once and the two ACKs between the non-sequencers a delayCap later.
func TestUrgentFramesOfAnUnbatchedBroadcast(t *testing.T) {
	for _, n := range []int{3, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			// (No retransmission timer: on a slow machine it would add a frame.)
			nodes, taps := makeTappedGroup(t, transport.NewMemNetwork(), groupAddrs(n), func(cfg *Config) { cfg.NackDelay = time.Minute }, nil)
			for _, delegate := range nodes { // nodes[0] is the sequencer
				before, _ := sentByType(taps)
				marks := make([]int, n)
				for i, tp := range taps {
					marks[i] = len(tp.log())
				}
				if _, err := delegate.bc.Broadcast([]byte("x")); err != nil {
					t.Fatal(err)
				}
				for _, nd := range nodes {
					collect(t, nd, 1, 2*time.Second)
				}
				want := before + n*n - 1
				waitFor(t, 2*time.Second, func() bool { got, _ := sentByType(taps); return got >= want })
				time.Sleep(20 * time.Millisecond) // a surplus frame would follow at once
				if got, _ := sentByType(taps); got != want {
					t.Fatalf("delegate %s: the broadcast cost %d frames, want n²-1 = %d", delegate.addr, got-before, n*n-1)
				}
				if n != 3 {
					continue
				}
				// The ORDER reaches a member before the member arms the window
				// of its lazy ACK, so the gap below is a floor no scheduling
				// can undercut; the prompt frames have no such ceiling.
				ordered := make(map[string]time.Time) // by recipient
				var lazy []sentFrame
				prompt := 0
				for i, tp := range taps {
					for _, f := range tp.frames()[marks[i]:] {
						switch {
						case f.Type == MsgOrder:
							ordered[f.To] = f.at
						case f.Type == MsgAck && f.To != nodes[0].addr:
							lazy = append(lazy, f)
							continue
						}
						prompt++
					}
				}
				if prompt != 6 || len(lazy) != 2 {
					t.Fatalf("delegate %s: %d prompt frames and %d ACKs between non-sequencers, want 6 and 2", delegate.addr, prompt, len(lazy))
				}
				for _, f := range lazy {
					if gap := f.at.Sub(ordered[f.From]); gap < delayCap {
						t.Fatalf("delegate %s: the ACK %s→%s left %v after the ORDER it answers, want at least delayCap", delegate.addr, f.From, f.To, gap)
					}
				}
			}
			_, byType := sentByType(taps)
			if byType[MsgData] != n*(n-1) || byType[MsgOrder] != n*(n-1) || byType[MsgAck] != n*(n-1)*(n-1) {
				t.Fatalf("%d broadcasts sent %v, want %d DATA, %d ORDER, %d ACK", n, byType, n*(n-1), n*(n-1), n*(n-1)*(n-1))
			}
			var counted uint64
			for _, nd := range nodes {
				counted += nd.bc.Stats().MsgsSent
			}
			if total, _ := sentByType(taps); counted != uint64(total) {
				t.Fatalf("Stats.MsgsSent sums to %d, the transport saw %d", counted, total)
			}
			emissions := uint64(n) // one per ORDER, and of three a lazy one beside it
			if n == 3 {
				emissions = 2 * 3
			}
			for i, nd := range nodes {
				if got := nd.bc.Stats().AckSends; i == 0 && got != 0 || i > 0 && got != emissions {
					t.Fatalf("%s emitted %d ACKs, want none from the sequencer and %d from everybody else", nd.addr, got, emissions)
				}
			}
		})
	}
}

// TestNoProtocolMessageIsAddressedToSelf drives every message type through the
// taps — a NACK round, a crash takeover — and relies on the check
// makeTappedGroup installs.
func TestNoProtocolMessageIsAddressedToSelf(t *testing.T) {
	net := transport.NewMemNetwork()
	nodes, taps := makeTappedGroup(t, net, groupAddrs(3), func(cfg *Config) {
		cfg.NackDelay = 2 * time.Millisecond
	}, nil)

	net.BlockLink("s2", "s3") // s3 gets the ORDER without the DATA: NACK
	nodes[1].bc.Broadcast([]byte("nacked"))
	for _, nd := range nodes {
		collect(t, nd, 1, 5*time.Second)
	}
	net.UnblockLink("s2", "s3")
	seqr := nodes[0].bc.Sequencer()
	net.Crash(seqr) // NEWEPOCH, STATE
	var live []*node
	for _, nd := range nodes {
		if nd.addr != seqr {
			live = append(live, nd)
		}
	}
	for _, nd := range live {
		nd.bc.Suspect(seqr)
	}
	live[0].bc.Broadcast([]byte("after"))
	for _, nd := range live {
		collect(t, nd, 1, 5*time.Second)
	}

	_, byType := sentByType(taps)
	for _, typ := range []string{MsgData, MsgOrder, MsgAck, MsgNack, MsgNewEpoch, MsgState} {
		if byType[typ] == 0 {
			t.Errorf("the scenario never sent a %s", typ)
		}
	}
}

// TestDelegateDeliversOnTheOrderAlone: in a group of three the ORDER carries
// the sequencer's vote, so with the member's own that is a majority — the
// delegate and the third member deliver without any ACK.  The sequencer has
// one vote and must wait.
func TestDelegateDeliversOnTheOrderAlone(t *testing.T) {
	nodes, _ := makeTappedGroup(t, transport.NewMemNetwork(), groupAddrs(3), nil, isAck)
	if _, err := nodes[1].bc.Broadcast([]byte("two hops")); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes[1:] {
		if d := collect(t, nd, 1, 2*time.Second)[0]; d.Seq != 1 || string(d.Payload) != "two hops" {
			t.Fatalf("%s delivered %+v", nd.addr, d)
		}
	}
	expectNoDelivery(t, nodes[0], 100*time.Millisecond, "the sequencer holds only its own vote")
	if got := nodes[0].bc.votersOf(1); got != 1 {
		t.Fatalf("sequencer's voters mask for seq 1 is %b, want its own bit only", got)
	}
}

// TestOrderPlusOwnVoteIsAMinorityOfFive: with five members the ORDER and the
// member's own vote are two of five.  Nothing is delivered until a third
// member's ACK arrives, and then only where it makes three.
func TestOrderPlusOwnVoteIsAMinorityOfFive(t *testing.T) {
	nodes, taps := makeTappedGroup(t, transport.NewMemNetwork(), groupAddrs(5), nil, isAck)
	if _, err := nodes[1].bc.Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { _, by := sentByType(taps); return by[MsgAck] == 16 })
	for _, nd := range nodes {
		expectNoDelivery(t, nd, 20*time.Millisecond, "no member can hold more than two votes")
		if got := bits.OnesCount64(nd.bc.votersOf(1)); got > 2 {
			t.Fatalf("%s counts %d votes with every ACK held back", nd.addr, got)
		}
	}
	// s3's ACK is the third vote at the delegate s2 and at s4 and s5; at the
	// sequencer and at s3 itself it makes two.
	taps[2].release()
	for _, i := range []int{1, 3, 4} {
		collect(t, nodes[i], 1, 2*time.Second)
	}
	for _, i := range []int{0, 2} {
		expectNoDelivery(t, nodes[i], 50*time.Millisecond, "two votes of five")
	}
	for _, tp := range taps {
		tp.release()
	}
	for _, i := range []int{0, 2} {
		collect(t, nodes[i], 1, 2*time.Second)
	}
}

// TestOrderFromNonSequencerIsIgnored: an ORDER counts as the vote of its
// epoch's sequencer, so one that arrives from anybody else must leave no
// trace: no store, no vote, no ACK.
func TestOrderFromNonSequencerIsIgnored(t *testing.T) {
	nodes, taps := makeTappedGroup(t, transport.NewMemNetwork(), groupAddrs(3), nil, nil)
	victim := nodes[2]
	forged := transport.Message{Type: MsgOrder, Payload: encodeOrder(orderMsg{Epoch: 0, BaseSeq: 1, MsgIDs: []string{"s2/0/77"}})}
	if err := taps[1].Endpoint.Send("s3", forged); err != nil { // s2 is not the sequencer of epoch 0
		t.Fatal(err)
	}
	// s2's genuine broadcast queues behind the forgery on the s2→s3 link.
	if _, err := nodes[1].bc.Broadcast([]byte("genuine")); err != nil {
		t.Fatal(err)
	}
	d := collect(t, victim, 1, 2*time.Second)[0]
	if d.Seq != 1 || string(d.Payload) != "genuine" {
		t.Fatalf("s3 delivered %+v, want the genuine broadcast at seq 1", d)
	}
	victim.bc.mu.Lock()
	_, indexed := victim.bc.idx["s2/0/77"]
	victim.bc.mu.Unlock()
	if indexed {
		t.Fatal("the forged ORDER was stored")
	}
	if got := victim.bc.Stats().AckSends; got != 1 {
		t.Fatalf("s3 sent %d ACKs, want 1 (the genuine ORDER only)", got)
	}
}

// TestUniformAgreementAcrossTakeover is the case ORDER-as-vote must not break:
// the delegate delivers on {sequencer, itself} while the third member has seen
// neither the ORDER nor the delegate's ACK, and then the sequencer crashes.
// Whichever survivor sequences next, the gather finds the assignment in the
// delegate's window, and the third member delivers the same id at the same
// sequence number.  In the lazy variants a prefix has been delivered everywhere
// and the survivors have not heard of each other's votes for it either: a vote
// is a stored order, which the gather reads from the windows, whoever has been
// told of it by then — and the votes of the dead epoch may still arrive after
// the takeover.
func TestUniformAgreementAcrossTakeover(t *testing.T) {
	for _, tc := range []struct {
		name     string
		delegate int // index into the member list; the other survivor is the third member
		prefix   int // broadcasts delivered everywhere beforehand, their lazy ACKs pending
	}{
		{"delegate sequences next", 1, 0},
		{"third member sequences next", 2, 0},
		{"delegate sequences next, lazy votes pending", 1, 5},
		{"third member sequences next, lazy votes pending", 2, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewMemNetwork()
			addrs := groupAddrs(3)
			// Between the survivors no vote of the sequencer's epoch gets through
			// until the takeover is over.
			nodes, taps := makeTappedGroup(t, net, addrs, nil, func(m transport.Message) bool {
				var a ackMsg
				return isAck(m) && m.To != "s1" && decodeAck(m.Payload, &a) == nil && a.Epoch == 0
			})
			delegate, third := nodes[tc.delegate], nodes[3-tc.delegate]
			for i := 0; i < tc.prefix; i++ {
				if _, err := nodes[i%3].bc.Broadcast([]byte("prefix")); err != nil {
					t.Fatal(err)
				}
				for _, nd := range nodes {
					collect(t, nd, 1, 2*time.Second)
				}
			}
			first := uint64(tc.prefix + 1)
			net.BlockLink("s1", third.addr) // the sequencer's ORDER never reaches the third member

			id, err := delegate.bc.Broadcast([]byte("uniform"))
			if err != nil {
				t.Fatal(err)
			}
			if d := collect(t, delegate, 1, 2*time.Second)[0]; d.Seq != first || d.MsgID != id {
				t.Fatalf("delegate delivered %+v", d)
			}
			expectNoDelivery(t, third, 20*time.Millisecond, "it has no ORDER")

			net.Crash("s1")
			delegate.bc.Suspect("s1")
			third.bc.Suspect("s1")

			if d := collect(t, third, 1, 5*time.Second)[0]; d.Seq != first || d.MsgID != id {
				t.Fatalf("third member delivered %+v, the delegate had delivered %s at seq %d", d, id, first)
			}
			// The dead epoch's votes — the prefix's, and the delegate's for the
			// order the third member never saw — arrive now, or never.
			for _, tp := range taps {
				if tc.prefix > 0 {
					tp.release()
				} else {
					tp.mu.Lock()
					tp.hold, tp.held = nil, nil
					tp.mu.Unlock()
				}
			}
			// Numbering resumes above the adopted assignment at both survivors.
			if _, err := third.bc.Broadcast([]byte("next")); err != nil {
				t.Fatal(err)
			}
			for _, nd := range []*node{delegate, third} {
				if d := collect(t, nd, 1, 5*time.Second)[0]; d.Seq != first+1 || string(d.Payload) != "next" {
					t.Fatalf("%s delivered %+v after the takeover, want \"next\" at seq %d", nd.addr, d, first+1)
				}
			}
		})
	}
}

// TestAnnouncementsStayInSequenceOrder has many goroutines broadcast at the
// sequencer — so the assignment path is entered beside the router thread —
// while every ORDER dawdles on its way to the transport.  Assigning a range
// and announcing it must be one serial step: on every link the ORDERs carry
// strictly increasing base sequences.
func TestAnnouncementsStayInSequenceOrder(t *testing.T) {
	const callers, each = 8, 25
	nodes, taps := makeTappedGroup(t, transport.NewMemNetwork(), groupAddrs(3), nil, nil)
	for _, tp := range taps {
		tp.stall = MsgOrder
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := nodes[0].bc.Broadcast([]byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	assertUniformTotalOrder(t, nodes, callers*each)

	for _, tp := range taps {
		lastBase := make(map[string]uint64) // per link: base sequence of the latest ORDER
		for _, m := range tp.log() {
			if m.Type != MsgOrder {
				continue
			}
			var o orderMsg
			if err := decodeOrder(m.Payload, &o); err != nil {
				t.Fatal(err)
			}
			if o.BaseSeq <= lastBase[m.To] {
				t.Fatalf("link %s→%s: ORDER for base %d sent after the one for base %d", m.From, m.To, o.BaseSeq, lastBase[m.To])
			}
			lastBase[m.To] = o.BaseSeq
		}
	}
}
