package abcast

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/transport"
)

// tailSlack is the "small constant" of the retained-state bound: delivery
// cursors ride on ORDER and ACK messages, so the records of the last ranges
// delivered stay until the next message advertises that they were.
const tailSlack = 4 * ackMergeBound

// retained returns how many records the member's window holds.
func (b *Broadcaster) retained() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.win.top - b.win.base)
}

// pump broadcasts count payloads through the group, round-robin over the
// senders and at most window in flight, while every listed node's deliveries
// are drained; it returns once nodes[0] delivered them all.
func pump(t *testing.T, senders, nodes []*node, count int) {
	t.Helper()
	const window = 64
	inflight := make(chan struct{}, window)
	stalled := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for _, n := range nodes {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.After(2 * time.Minute)
			for i := 0; i < count; i++ {
				select {
				case <-n.bc.Deliveries():
					if n == nodes[0] {
						<-inflight
					}
				case <-deadline:
					t.Errorf("%s: delivered %d of %d before timeout", n.addr, i, count)
					once.Do(func() { close(stalled) })
					return
				}
			}
		}()
	}
	payload := make([]byte, 64)
	for i := 0; i < count; i++ {
		select {
		case inflight <- struct{}{}:
		case <-stalled:
			t.FailNow()
		}
		if _, err := senders[i%len(senders)].bc.Broadcast(payload); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestRetainedStateIsBounded pushes 200k broadcasts through three members:
// what a member retains must track the lag of the slowest member (nil once
// everyone has caught up), not the length of the history.
func TestRetainedStateIsBounded(t *testing.T) {
	net := transport.NewMemNetwork()
	nodes := makeGroup(t, net, []string{"s1", "s2", "s3"})

	pump(t, nodes, nodes, 20000)
	early := heapInuse()
	pump(t, nodes, nodes, 180000)
	late := heapInuse()

	for _, n := range nodes {
		// Every member has delivered everything: the slowest-member lag is
		// zero and only the tail the cursors have not advertised yet remains.
		if got := n.bc.retained(); got > tailSlack {
			t.Errorf("%s retains %d records after 200k deliveries, want at most %d", n.addr, got, tailSlack)
		}
		n.bc.mu.Lock()
		if len(n.bc.idx) > tailSlack || len(n.bc.unordered) != 0 {
			t.Errorf("%s: id index holds %d entries, %d payloads unordered", n.addr, len(n.bc.idx), len(n.bc.unordered))
		}
		n.bc.mu.Unlock()
	}
	if late > early+early/2 {
		t.Errorf("heap in use grew from %d KB at 20k to %d KB at 200k broadcasts", early>>10, late>>10)
	}
}

// TestPrunedSequenceNumbersAreIgnored replays, after the window moved past a
// delivered message, every kind of message that names it: the DATA must not
// be ordered again, the ORDER and the ACK must not resurrect its record, and
// nothing is delivered twice.
func TestPrunedSequenceNumbersAreIgnored(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	router := gcs.NewRouter(net.Endpoint("s1"))
	// s1 is the sequencer; the router is never started, every protocol step
	// is injected directly.
	b, err := New(Config{Self: "s1", Members: addrs}, router)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	data := dataMsg{Entries: []dataEntry{{MsgID: "s2/0/1", Payload: []byte("x")}}}
	order := orderMsg{Epoch: 0, BaseSeq: 1, MsgIDs: []string{"s2/0/1"}}
	ack := ackMsg{Epoch: 0, BaseSeq: 1, MsgIDs: order.MsgIDs, Cursor: 2}
	b.handleData(data) // assigns sequence number 1 and casts the sequencer's vote
	for _, from := range addrs[1:] {
		b.handleAck(ack, from)
	}
	select {
	case d := <-b.Deliveries():
		if d.Seq != 1 || d.MsgID != "s2/0/1" {
			t.Fatalf("delivered %+v", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never delivered")
	}
	if got := b.retained(); got != 0 {
		t.Fatalf("every member advertised cursor 2, yet %d records are retained", got)
	}
	before := b.Stats()

	b.handleData(data)
	b.handleOrder(order, "s1")
	b.handleAck(ack, "s2")
	b.handleNack(nackMsg{Seq: 1, MsgID: "s2/0/1"}, "s3")

	after := b.Stats()
	if after.Ordered != before.Ordered {
		t.Fatalf("a late duplicate DATA was given a new sequence number (%d assignments, was %d)", after.Ordered, before.Ordered)
	}
	if after.AckSends != before.AckSends || after.Retransmits != before.Retransmits {
		t.Fatalf("late messages for a pruned sequence number were answered: %+v, was %+v", after, before)
	}
	b.mu.Lock()
	held, indexed := len(b.unordered), len(b.idx)
	b.mu.Unlock()
	if got := b.retained(); got != 0 || held != 0 || indexed != 0 {
		t.Fatalf("late messages for a pruned sequence number left state behind: %d records, %d payloads, %d index entries", got, held, indexed)
	}
	select {
	case d := <-b.Deliveries():
		t.Fatalf("second delivery %+v", d)
	default:
	}
}

// TestTakeoverStateIsBounded crashes the sequencer after 50k deliveries.  The
// state the survivors ship to the new sequencer must cover their window only,
// and total order and uniform agreement must hold across the takeover.
func TestTakeoverStateIsBounded(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)
	const history = 50000
	pump(t, nodes, nodes, history)

	survivors := nodes[1:]
	for _, n := range survivors {
		n.bc.mu.Lock()
		st := n.bc.snapshotStateLocked(1)
		n.bc.mu.Unlock()
		if len(st.Slots) > tailSlack || len(st.Unordered) != 0 {
			t.Errorf("%s would ship %d orders and %d unordered payloads to a takeover after %d deliveries", n.addr, len(st.Slots), len(st.Unordered), history)
		}
		if st.Base+uint64(len(st.Slots)) != history+1 {
			t.Errorf("%s: state covers [%d, %d), want it to end at %d", n.addr, st.Base, st.Base+uint64(len(st.Slots)), history+1)
		}
		if size := len(encodeState(st)); size > 64<<10 {
			t.Errorf("%s: encoded takeover state is %d bytes", n.addr, size)
		}
	}

	net.Crash("s1")
	for _, n := range survivors {
		n.bc.Suspect("s1")
	}
	const after = 200
	go func() {
		for i := 0; i < after; i++ {
			survivors[i%2].bc.Broadcast([]byte{byte(i)})
		}
	}()
	var seqs [2][]string
	for i, n := range survivors {
		for j, d := range collect(t, n, after, 10*time.Second) {
			if d.Seq != uint64(history+1+j) {
				t.Fatalf("%s: delivery %d after the takeover has seq %d, want %d", n.addr, j, d.Seq, history+1+j)
			}
			seqs[i] = append(seqs[i], d.MsgID)
		}
	}
	for j := range seqs[0] {
		if seqs[0][j] != seqs[1][j] {
			t.Fatalf("survivors disagree at seq %d: %s vs %s", history+1+j, seqs[0][j], seqs[1][j])
		}
	}
}

// TestSuspectedMemberDoesNotStallPruning crashes a member mid-stream.  Until
// it is suspected the survivors must keep what it has not delivered; once it
// is, the window closes up, and the member's next incarnation joins at the
// cursor a state transfer hands it.
func TestSuspectedMemberDoesNotStallPruning(t *testing.T) {
	net := transport.NewMemNetwork()
	addrs := []string{"s1", "s2", "s3"}
	nodes := makeGroup(t, net, addrs)
	pump(t, nodes, nodes, 1000)

	net.Crash("s3")
	nodes[2].bc.Close()
	nodes[2].router.Stop()
	live := nodes[:2]
	const while = 2000
	pump(t, live, live, while)
	for _, n := range live {
		if got := n.bc.retained(); got < while {
			t.Fatalf("%s retains %d records while unsuspected s3 lags %d behind", n.addr, got, while)
		}
	}
	for _, n := range live {
		n.bc.Suspect("s3")
		if got := n.bc.retained(); got > tailSlack {
			t.Fatalf("%s still retains %d records after suspecting s3", n.addr, got)
		}
	}

	// The successor incarnation: state transfer gives it the survivors'
	// applied prefix, SkipTo positions it behind that.
	net.Recover("s3")
	router := gcs.NewRouter(net.Endpoint("s3"))
	bc, err := New(Config{Self: "s3", Members: addrs, Incarnation: 1}, router)
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	t.Cleanup(func() {
		bc.Close()
		router.Stop()
	})
	next := live[0].bc.NextDeliver()
	bc.SkipTo(next)
	for _, n := range live {
		n.bc.Unsuspect("s3")
	}
	all := []*node{live[0], live[1], {addr: "s3", router: router, bc: bc}}
	before := len(all[2].bc.Deliveries())
	pump(t, all, all, 500)
	if before != 0 {
		t.Fatalf("successor delivered %d messages before joining", before)
	}
	if got := bc.NextDeliver(); got != next+500 {
		t.Fatalf("successor's cursor is %d, want %d", got, next+500)
	}
	for _, n := range all {
		if got := n.bc.retained(); got > tailSlack {
			t.Fatalf("%s retains %d records after the successor joined", n.addr, got)
		}
	}
}

// TestSenderLogTracksOutOfOrderPrunes checks the per-sender record of ids that
// left the window: a contiguous watermark, plus the counters pruned ahead of
// a gap until the gap closes.
func TestSenderLogTracksOutOfOrderPrunes(t *testing.T) {
	b := &Broadcaster{pruned: make(map[string]*senderLog)}
	for _, id := range []string{"s1/0/1", "s1/0/2", "s1/0/5", "s1/0/4", "s2/7/1", "no-counter"} {
		b.logPrunedLocked(id)
	}
	for id, want := range map[string]bool{
		"s1/0/1": true, "s1/0/2": true, "s1/0/3": false, "s1/0/4": true, "s1/0/5": true, "s1/0/6": false,
		"s1/1/1": false, "s2/7/1": true, "s2/7/2": false, "no-counter": false,
	} {
		if got := b.staleLocked(id); got != want {
			t.Errorf("stale(%q) = %v, want %v", id, got, want)
		}
	}
	b.logPrunedLocked("s1/0/3")
	if l := b.pruned["s1/0/"]; l.low != 5 || len(l.above) != 0 {
		t.Fatalf("closing the gap left watermark %d and %d sparse counters, want 5 and 0", l.low, len(l.above))
	}
}

// TestWindowGrowsAndShrinks drives the ring past its initial size and back.
func TestWindowGrowsAndShrinks(t *testing.T) {
	b := &Broadcaster{win: newWindow(), idx: make(map[string]uint64), pruned: make(map[string]*senderLog), cursors: make([]atomic.Uint64, 1), suspected: []bool{false}}
	const span = 10 * minRing
	for seq := uint64(1); seq <= span; seq++ {
		b.win.slot(seq).voters = seq
	}
	if b.win.slot(span+maxWindow) != nil || b.win.slot(0) != nil {
		t.Fatal("a sequence number outside the window's reach got a record")
	}
	for seq := uint64(1); seq <= span; seq++ {
		if r := b.win.get(seq); r == nil || r.voters != seq {
			t.Fatalf("record %d lost while the ring grew", seq)
		}
	}
	b.nextDeliver = span - 9
	b.pruneLocked()
	if b.win.base != span-9 || len(b.win.recs) != minRing {
		t.Fatalf("after pruning to %d: base %d, ring of %d", span-9, b.win.base, len(b.win.recs))
	}
	for seq := b.win.base; seq <= span; seq++ {
		if r := b.win.get(seq); r == nil || r.voters != seq {
			t.Fatalf("record %d lost while the ring shrank", seq)
		}
	}
}
