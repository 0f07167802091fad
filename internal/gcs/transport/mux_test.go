package transport

import (
	"testing"
	"time"
)

// handled sets a handler on ep that forwards what it is called with to the
// returned channel.
func handled(ep Endpoint) <-chan Message {
	ch := make(chan Message, 16)
	ep.SetHandler(func(m Message) { ch <- m })
	return ch
}

func recvOne(t *testing.T, ch <-chan Message) Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
		return Message{}
	}
}

func TestMuxIsolatesInstances(t *testing.T) {
	base := NewMemNetwork()
	mux := NewMux(base)

	a := mux.Instance("p0")
	b := mux.Instance("p1")
	a1, a2 := a.Endpoint("s1"), a.Endpoint("s2")
	b2 := b.Endpoint("s2")
	a2in, b2in := handled(a2), handled(b2)

	if err := a1.Send("s2", Message{Type: "ab.data", Payload: []byte("x")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	m := recvOne(t, a2in)
	if m.Type != "ab.data" || m.From != "s1" || m.To != "s2" || string(m.Payload) != "x" {
		t.Fatalf("instance p0 got %+v", m)
	}
	select {
	case m := <-b2in:
		t.Fatalf("instance p1 leaked message %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestMuxEndpointStable(t *testing.T) {
	mux := NewMux(NewMemNetwork())
	inst := mux.Instance("p0")
	if inst.Endpoint("s1") != inst.Endpoint("s1") {
		t.Fatal("Endpoint not stable across re-attachment")
	}
	if mux.Instance("p0") != inst {
		t.Fatal("Instance not stable")
	}
}

func TestMuxCrashIsWholeServer(t *testing.T) {
	base := NewMemNetwork()
	mux := NewMux(base)

	a := mux.Instance("p0")
	b := mux.Instance("p1")
	a1, a2 := a.Endpoint("s1"), a.Endpoint("s2")
	b1, b2 := b.Endpoint("s1"), b.Endpoint("s2")
	a2in, b1in, b2in := handled(a2), handled(b1), handled(b2)

	// Crash s2 through one instance: both instances' traffic to s2 dies, and
	// s2 cannot send on either instance.
	a.Crash("s2")
	b.Crash("s2")
	if err := a1.Send("s2", Message{Type: "t"}); err != nil {
		t.Fatalf("send to crashed: %v", err)
	}
	if err := b1.Send("s2", Message{Type: "t"}); err != nil {
		t.Fatalf("send to crashed: %v", err)
	}
	select {
	case m := <-a2in:
		t.Fatalf("crashed endpoint received %+v", m)
	case m := <-b2in:
		t.Fatalf("crashed endpoint received %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	if err := b2.Send("s1", Message{Type: "t"}); err == nil {
		t.Fatal("crashed endpoint could send")
	}

	// Recover on both instances: traffic flows again.
	a.Recover("s2")
	b.Recover("s2")
	if err := a1.Send("s2", Message{Type: "after"}); err != nil {
		t.Fatalf("send after recover: %v", err)
	}
	if m := recvOne(t, a2in); m.Type != "after" {
		t.Fatalf("got %+v", m)
	}
	if err := b2.Send("s1", Message{Type: "back"}); err != nil {
		t.Fatalf("send after recover: %v", err)
	}
	if m := recvOne(t, b1in); m.Type != "back" {
		t.Fatalf("got %+v", m)
	}
}

func TestMuxBaseFaultInjectionApplies(t *testing.T) {
	base := NewMemNetwork()
	mux := NewMux(base)
	inst := mux.Instance("p0")
	e1, e2 := inst.Endpoint("s1"), inst.Endpoint("s2")
	e2in := handled(e2)

	base.BlockLink("s1", "s2")
	if err := e1.Send("s2", Message{Type: "t"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case m := <-e2in:
		t.Fatalf("blocked link delivered %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	base.UnblockAllLinks()
	if err := e1.Send("s2", Message{Type: "t2"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if m := recvOne(t, e2in); m.Type != "t2" {
		t.Fatalf("got %+v", m)
	}
}
