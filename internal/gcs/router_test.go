package gcs

import (
	"sync"
	"sync/atomic"
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

// TestRouterExactTypeThenNamespace: a message goes to the handler of its exact
// type, else to that of its namespace — the type up to its first '.' — and
// never to a longer prefix that is neither.
func TestRouterExactTypeThenNamespace(t *testing.T) {
	net := transport.NewMemNetwork()
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	r := NewRouter(b)
	hits := make(chan string, 4)
	r.Handle("x.", func(m transport.Message) { hits <- "namespace " + m.Type })
	r.Handle("x.long", func(m transport.Message) { hits <- "exact " + m.Type })
	r.Handle("x.long.", func(m transport.Message) { hits <- "prefix " + m.Type })
	r.Start()
	defer r.Stop()

	for _, tc := range []struct{ typ, want string }{
		{"x.long", "exact x.long"},
		{"x.long.msg", "namespace x.long.msg"},
		{"x.other", "namespace x.other"},
	} {
		a.Send("b", transport.Message{Type: tc.typ})
		select {
		case h := <-hits:
			if h != tc.want {
				t.Fatalf("dispatched as %q, want %q", h, tc.want)
			}
		case <-time.After(time.Second):
			t.Fatalf("%q not dispatched", tc.typ)
		}
	}
}

// TestRouterStopWaitsForTCPHandlers: over TCP the read loops run the handlers,
// and Stop returns only once the call in flight has.
func TestRouterStopWaitsForTCPHandlers(t *testing.T) {
	a, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	r := NewRouter(b)
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	releaseHandler := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseHandler() // (runs before the endpoints close, which waits for the handler)
	var finished atomic.Bool
	r.Handle("slow", func(transport.Message) {
		close(entered)
		<-release
		finished.Store(true)
	})
	r.Start()
	if err := a.Send(b.Addr(), transport.Message{Type: "slow"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler was not called")
	}
	stopped := make(chan bool)
	go func() {
		r.Stop()
		stopped <- finished.Load()
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while the handler was running")
	case <-time.After(50 * time.Millisecond):
	}
	releaseHandler()
	if !<-stopped {
		t.Fatal("Stop returned before the handler did")
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

// TestRouterHandlersRunConcurrentlyAcrossMemLinks is the in-memory network's
// counterpart of the TCP transport's test: a handler call for one peer that
// waits for a message from another does not wait forever, because each
// link's goroutine runs the router's handler beside the others.
func TestRouterHandlersRunConcurrentlyAcrossMemLinks(t *testing.T) {
	net := transport.NewMemNetwork()
	slow, fast := net.Endpoint("slow"), net.Endpoint("fast")
	r := NewRouter(net.Endpoint("b"))
	slowIn, fastIn, slowOut := make(chan struct{}), make(chan struct{}), make(chan bool, 1)
	r.Handle("t", func(m transport.Message) {
		switch m.From {
		case "slow":
			close(slowIn)
			select {
			case <-fastIn:
				slowOut <- true
			case <-time.After(2 * time.Second):
				slowOut <- false
			}
		case "fast":
			close(fastIn)
		}
	})
	r.Start()
	defer r.Stop()
	if err := slow.Send("b", transport.Message{Type: "t"}); err != nil {
		t.Fatal(err)
	}
	<-slowIn
	if err := fast.Send("b", transport.Message{Type: "t"}); err != nil {
		t.Fatal(err)
	}
	if !<-slowOut {
		t.Fatal("the handler call for the second link waited for the one for the first")
	}
}
