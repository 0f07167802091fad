package transport

import (
	"errors"
	"testing"
	"time"
)

func recvWithTimeout(t *testing.T, ep Endpoint, d time.Duration) (Message, bool) {
	t.Helper()
	select {
	case m := <-ep.Recv():
		return m, true
	case <-time.After(d):
		return Message{}, false
	}
}

func TestMemNetworkBasicDelivery(t *testing.T) {
	n := NewMemNetwork()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	if a.Addr() != "a" {
		t.Fatalf("Addr = %q", a.Addr())
	}
	if err := a.Send("b", Message{Type: "ping", Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	m, ok := recvWithTimeout(t, b, time.Second)
	if !ok {
		t.Fatal("message not delivered")
	}
	if m.From != "a" || m.To != "b" || m.Type != "ping" || string(m.Payload) != "hi" {
		t.Fatalf("message = %+v", m)
	}
	sent, dropped := n.Stats()
	if sent != 1 || dropped != 0 {
		t.Fatalf("stats = %d sent, %d dropped", sent, dropped)
	}
}

func TestMemNetworkEndpointReuse(t *testing.T) {
	n := NewMemNetwork()
	a1 := n.Endpoint("a")
	a2 := n.Endpoint("a")
	if a1 != a2 {
		t.Fatal("same address should return the same endpoint")
	}
}

func TestMemNetworkZeroLatencyPreservesOrder(t *testing.T) {
	n := NewMemNetwork()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	for i := 0; i < 100; i++ {
		a.Send("b", Message{Type: "seq", Payload: []byte{byte(i)}})
	}
	for i := 0; i < 100; i++ {
		m, ok := recvWithTimeout(t, b, time.Second)
		if !ok {
			t.Fatalf("message %d missing", i)
		}
		if m.Payload[0] != byte(i) {
			t.Fatalf("out of order: got %d want %d", m.Payload[0], i)
		}
	}
}

func TestMemNetworkUnknownDestination(t *testing.T) {
	n := NewMemNetwork()
	a := n.Endpoint("a")
	if err := a.Send("ghost", Message{Type: "x"}); err != nil {
		t.Fatalf("send to unknown destination should not error: %v", err)
	}
	_, dropped := n.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestMemNetworkLoss(t *testing.T) {
	n := NewMemNetwork(WithLoss(1.0), WithSeed(7))
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	for i := 0; i < 10; i++ {
		a.Send("b", Message{Type: "x"})
	}
	if _, ok := recvWithTimeout(t, b, 50*time.Millisecond); ok {
		t.Fatal("message delivered despite 100% loss")
	}
	_, dropped := n.Stats()
	if dropped != 10 {
		t.Fatalf("dropped = %d", dropped)
	}
}

func TestMemNetworkLatency(t *testing.T) {
	n := NewMemNetwork(WithLatency(30 * time.Millisecond))
	n.SetJitter(5 * time.Millisecond)
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	start := time.Now()
	a.Send("b", Message{Type: "x"})
	if _, ok := recvWithTimeout(t, b, time.Second); !ok {
		t.Fatal("message not delivered")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("delivered after %v, expected >= ~30ms", elapsed)
	}
}

// TestMemNetworkChannelFIFO: delayed deliveries must preserve per-channel
// send order even when jitter gives later messages shorter delays — the
// in-memory LAN models FIFO links (like the TCP transport), and the lazy
// write-set propagation relies on it (an overtaking older write set would
// silently diverge a secondary under last-writer-wins).
// The jitter-only configuration (zero base latency) is the adversarial case:
// a zero jitter draw takes a zero total delay, which must still queue behind
// earlier draws of the same channel rather than delivering synchronously.
func TestMemNetworkChannelFIFO(t *testing.T) {
	n := NewMemNetwork(WithSeed(42))
	n.SetJitter(2 * time.Millisecond)
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	const msgs = 200
	for i := 0; i < msgs; i++ {
		if err := a.Send("b", Message{Type: "seq", Payload: []byte{byte(i), byte(i >> 8)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		m, ok := recvWithTimeout(t, b, 2*time.Second)
		if !ok {
			t.Fatalf("message %d not delivered", i)
		}
		if got := int(m.Payload[0]) | int(m.Payload[1])<<8; got != i {
			t.Fatalf("delivery %d carried sequence %d: channel reordered", i, got)
		}
	}
}

func TestMemNetworkCrashAndRecover(t *testing.T) {
	n := NewMemNetwork()
	a := n.Endpoint("a")
	b := n.Endpoint("b")

	// Queue a message, then crash the destination before it reads it.
	a.Send("b", Message{Type: "lost"})
	n.Crash("b")
	if !n.Crashed("b") {
		t.Fatal("Crashed should report true")
	}
	// Messages to a crashed endpoint are dropped.
	a.Send("b", Message{Type: "also-lost"})
	// A crashed endpoint cannot send.
	if err := b.Send("a", Message{Type: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send from crashed endpoint: %v", err)
	}

	n.Recover("b")
	if n.Crashed("b") {
		t.Fatal("Crashed should report false after recovery")
	}
	// The queued and in-crash messages are gone; new messages flow again.
	a.Send("b", Message{Type: "fresh"})
	m, ok := recvWithTimeout(t, b, time.Second)
	if !ok || m.Type != "fresh" {
		t.Fatalf("message after recovery = %+v, ok=%v", m, ok)
	}
	// Crash/recover of unknown addresses are no-ops.
	n.Crash("ghost")
	n.Recover("ghost")
	if n.Crashed("ghost") {
		t.Fatal("unknown endpoint cannot be crashed")
	}
}

func TestMemNetworkPartition(t *testing.T) {
	n := NewMemNetwork()
	a := n.Endpoint("a")
	b := n.Endpoint("b")
	c := n.Endpoint("c")
	n.Partition([]string{"a"}, []string{"b", "c"})

	a.Send("b", Message{Type: "blocked"})
	if _, ok := recvWithTimeout(t, b, 50*time.Millisecond); ok {
		t.Fatal("message crossed a partition")
	}
	// Within a partition, traffic flows.
	b.Send("c", Message{Type: "ok"})
	if _, ok := recvWithTimeout(t, c, time.Second); !ok {
		t.Fatal("intra-partition message lost")
	}
	n.Heal()
	a.Send("b", Message{Type: "healed"})
	if m, ok := recvWithTimeout(t, b, time.Second); !ok || m.Type != "healed" {
		t.Fatal("message lost after heal")
	}
}

func TestMemEndpointClose(t *testing.T) {
	n := NewMemNetwork()
	a := n.Endpoint("a")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send(b.Addr(), Message{Type: "hello", Payload: []byte("world")}); err != nil {
		t.Fatal(err)
	}
	m, ok := recvWithTimeout(t, b, 2*time.Second)
	if !ok {
		t.Fatal("TCP message not delivered")
	}
	if m.Type != "hello" || string(m.Payload) != "world" || m.From != a.Addr() {
		t.Fatalf("message = %+v", m)
	}

	// Reply over the reverse direction (separate connection).
	if err := b.Send(a.Addr(), Message{Type: "re"}); err != nil {
		t.Fatal(err)
	}
	if m, ok := recvWithTimeout(t, a, 2*time.Second); !ok || m.Type != "re" {
		t.Fatalf("reply = %+v ok=%v", m, ok)
	}
}

func TestTCPManyMessagesReuseConnection(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Send(b.Addr(), Message{Type: "seq", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < count; i++ {
		m, ok := recvWithTimeout(t, b, 2*time.Second)
		if !ok {
			t.Fatalf("message %d not delivered", i)
		}
		if m.Payload[0] != byte(i) {
			t.Fatalf("out of order at %d: %d", i, m.Payload[0])
		}
	}
}

func TestTCPSendErrors(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Sending to a dead address is not an immediate error: the message is
	// queued FIFO while the dialer backs off (see TestTCPDeadPeerBackpressure
	// for the typed overflow error once the queue fills).
	if err := a.Send("127.0.0.1:1", Message{Type: "x"}); err != nil {
		t.Fatalf("send to dead address should queue, got %v", err)
	}
	a.Close()
	if err := a.Send("127.0.0.1:1", Message{Type: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
