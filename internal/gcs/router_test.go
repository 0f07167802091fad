package gcs

import (
	"sync"
	"testing"
	"time"

	"groupsafe/internal/gcs/transport"
)

func TestRouterDispatchByPrefix(t *testing.T) {
	net := transport.NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	r := NewRouter(b)

	var mu sync.Mutex
	got := map[string]int{}
	record := func(key string) Handler {
		return func(m transport.Message) {
			mu.Lock()
			got[key]++
			mu.Unlock()
		}
	}
	r.Handle("ab.", record("ab"))
	r.Handle("ab.data", record("ab.data"))
	r.Handle("fd.", record("fd"))
	r.Start()
	defer r.Stop()

	a.Send("b", transport.Message{Type: "ab.data"})
	a.Send("b", transport.Message{Type: "ab.order"})
	a.Send("b", transport.Message{Type: "fd.heartbeat"})
	a.Send("b", transport.Message{Type: "unknown"})

	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		done := got["ab.data"] == 1 && got["ab"] == 1 && got["fd"] == 1
		mu.Unlock()
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	t.Fatalf("dispatch counts = %v", got)
}

func TestRouterLongestPrefixWins(t *testing.T) {
	net := transport.NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	r := NewRouter(b)
	hits := make(chan string, 4)
	r.Handle("x.", func(m transport.Message) { hits <- "short" })
	r.Handle("x.long.", func(m transport.Message) { hits <- "long" })
	r.Start()
	defer r.Stop()

	a.Send("b", transport.Message{Type: "x.long.msg"})
	select {
	case h := <-hits:
		if h != "long" {
			t.Fatalf("dispatched to %q, want longest prefix", h)
		}
	case <-time.After(time.Second):
		t.Fatal("message not dispatched")
	}
}

func TestRouterSendAndEndpoint(t *testing.T) {
	net := transport.NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	r := NewRouter(a)
	if r.Endpoint() != a {
		t.Fatal("Endpoint accessor wrong")
	}
	if err := r.Send("b", transport.Message{Type: "hi"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Recv():
		if m.Type != "hi" {
			t.Fatalf("message = %+v", m)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestRouterStopBeforeStart(t *testing.T) {
	net := transport.NewMemNetwork()
	r := NewRouter(net.Endpoint("a"))
	r.Stop() // must not hang or panic
	r.Start()
	r.Stop()
	r.Stop() // idempotent
}

func TestRouterDoubleStart(t *testing.T) {
	net := transport.NewMemNetwork()
	r := NewRouter(net.Endpoint("a"))
	r.Start()
	r.Start()
	r.Stop()
}

func TestRouterUnhandledMessageIgnored(t *testing.T) {
	net := transport.NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	r := NewRouter(b)
	r.Start()
	defer r.Stop()
	// No handlers registered: the message is dropped without panicking.
	a.Send("b", transport.Message{Type: "whatever"})
	time.Sleep(20 * time.Millisecond)
}
