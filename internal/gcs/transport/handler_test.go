package transport

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// listenN opens n endpoints on loopback, closed when the test ends.
func listenN(t *testing.T, n int) []*TCPEndpoint {
	t.Helper()
	eps := make([]*TCPEndpoint, n)
	for i := range eps {
		ep, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
	}
	return eps
}

// TestTCPHandlerKeepsLinkFIFO: with a handler set, the read loops call it
// directly, and what each peer sent still arrives in send order — while
// nothing is queued for Recv.
func TestTCPHandlerKeepsLinkFIFO(t *testing.T) {
	eps := listenN(t, 3)
	b := eps[0]
	const msgs = 500
	var mu sync.Mutex
	got := make(map[string][]int)
	all := make(chan struct{})
	b.SetHandler(func(m Message) {
		mu.Lock()
		defer mu.Unlock()
		got[m.From] = append(got[m.From], int(m.Payload[0])|int(m.Payload[1])<<8)
		if len(got[eps[1].Addr()])+len(got[eps[2].Addr()]) == 2*msgs {
			close(all)
		}
	})
	for i := 0; i < msgs; i++ {
		for _, a := range eps[1:] {
			if err := a.Send(b.Addr(), seqMsg(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatal("not every message reached the handler")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, a := range eps[1:] {
		for i, s := range got[a.Addr()] {
			if s != i {
				t.Fatalf("from %s: call %d carried sequence %d, the link reordered", a.Addr(), i, s)
			}
		}
	}
	if n := len(b.Recv()); n != 0 {
		t.Fatalf("%d messages were queued for Recv with a handler set", n)
	}
}

// TestTCPHandlersRunConcurrentlyAcrossLinks: a handler call for one peer that
// waits for a message from another does not wait forever — the second peer's
// read loop calls the handler beside the first.
func TestTCPHandlersRunConcurrentlyAcrossLinks(t *testing.T) {
	eps := listenN(t, 3)
	b, slow, fast := eps[0], eps[1], eps[2]
	slowIn, fastIn, slowOut := make(chan struct{}), make(chan struct{}), make(chan bool, 1)
	b.SetHandler(func(m Message) {
		switch m.From {
		case slow.Addr():
			close(slowIn)
			select {
			case <-fastIn:
				slowOut <- true
			case <-time.After(5 * time.Second):
				slowOut <- false
			}
		case fast.Addr():
			close(fastIn)
		}
	})
	if err := slow.Send(b.Addr(), seqMsg(0)); err != nil {
		t.Fatal(err)
	}
	<-slowIn
	if err := fast.Send(b.Addr(), seqMsg(1)); err != nil {
		t.Fatal(err)
	}
	if !<-slowOut {
		t.Fatal("the handler call for the second link waited for the one for the first")
	}
}

// TestTCPRecvWithoutHandler: an endpoint whose handler is cleared queues what
// it reads for Recv again.
func TestTCPRecvWithoutHandler(t *testing.T) {
	eps := listenN(t, 2)
	a, b := eps[0], eps[1]
	handled := make(chan int, 1)
	b.SetHandler(func(m Message) { handled <- int(m.Payload[0]) })
	if err := a.Send(b.Addr(), seqMsg(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-handled:
		if s != 1 {
			t.Fatalf("the handler got sequence %d, want 1", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the handler was not called")
	}
	b.SetHandler(nil)
	if err := a.Send(b.Addr(), seqMsg(2)); err != nil {
		t.Fatal(err)
	}
	if got := collectSeqs(b, 1, 5*time.Second); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Recv returned %v, want [2]", got)
	}
	if len(handled) != 0 {
		t.Fatal("the cleared handler was called")
	}
}

// TestMemNetworkHandlerKeepsLinkFIFOUnderJitter: with a handler set, each
// link's goroutine waits out every frame's drawn delay and calls the handler
// in send order, although jitter gives later frames shorter delays — while
// nothing is queued for Recv.
func TestMemNetworkHandlerKeepsLinkFIFOUnderJitter(t *testing.T) {
	n := NewMemNetwork(WithSeed(42))
	n.SetJitter(2 * time.Millisecond)
	b := n.Endpoint("b")
	senders := []Endpoint{n.Endpoint("a1"), n.Endpoint("a2")}
	const msgs = 200
	var mu sync.Mutex
	got := make(map[string][]int)
	all := make(chan struct{})
	b.SetHandler(func(m Message) {
		mu.Lock()
		defer mu.Unlock()
		got[m.From] = append(got[m.From], int(m.Payload[0])|int(m.Payload[1])<<8)
		if len(got["a1"])+len(got["a2"]) == 2*msgs {
			close(all)
		}
	})
	defer b.SetHandler(nil)
	for i := 0; i < msgs; i++ {
		for _, a := range senders {
			if err := a.Send("b", seqMsg(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatal("not every message reached the handler")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, a := range senders {
		for i, s := range got[a.Addr()] {
			if s != i {
				t.Fatalf("from %s: call %d carried sequence %d, the link reordered", a.Addr(), i, s)
			}
		}
	}
	if n := len(b.Recv()); n != 0 {
		t.Fatalf("%d messages were queued for Recv with a handler set", n)
	}
}

// TestMemNetworkFullLinkDropsAtTheSender: a link whose handler does not
// return holds memQueueSize frames; the next Send fails with ErrSendQueueFull
// and counts the frame as dropped, as a TCP peer's full queue does.
func TestMemNetworkFullLinkDropsAtTheSender(t *testing.T) {
	n := NewMemNetwork()
	a, b := n.Endpoint("a"), n.Endpoint("b")
	release := make(chan struct{})
	b.SetHandler(func(Message) { <-release })
	defer b.SetHandler(nil)
	defer close(release)
	for i := 0; i < memQueueSize; i++ {
		if err := a.Send("b", seqMsg(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	err := a.Send("b", seqMsg(memQueueSize))
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Peer != "b" || !errors.Is(err, ErrSendQueueFull) {
		t.Fatalf("send to a full link: %v, want a *PeerError for b wrapping ErrSendQueueFull", err)
	}
	if _, dropped := n.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

// TestMemNetworkDelayedFrameDiesWithTheLife: a frame still waiting out its
// latency when its destination crashes is never delivered, not even to the
// life that follows Recover.
func TestMemNetworkDelayedFrameDiesWithTheLife(t *testing.T) {
	n := NewMemNetwork(WithLatency(30 * time.Millisecond))
	a, b := n.Endpoint("a"), n.Endpoint("b")
	if err := a.Send("b", Message{Type: "old life"}); err != nil {
		t.Fatal(err)
	}
	n.Crash("b")
	n.Recover("b")
	if m, ok := recvWithTimeout(t, b, 100*time.Millisecond); ok {
		t.Fatalf("the recovered endpoint received %+v, sent to its previous life", m)
	}
	if _, dropped := n.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}
