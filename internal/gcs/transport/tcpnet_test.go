package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests mirror the MemNetwork contract suite over real sockets: the
// replication protocols above the transport (lazy FIFO propagation, abcast,
// the fuzzer's adversary schedules) rely on per-link FIFO with at-most-once
// delivery, and those guarantees must hold across connection loss, peer
// death and reconnection — not only on the in-memory network.

// collect drains ep until either want messages arrived or the deadline
// passed, returning the payload sequence numbers in arrival order.
func collectSeqs(ep Endpoint, want int, d time.Duration) []int {
	var got []int
	deadline := time.After(d)
	for len(got) < want {
		select {
		case m, ok := <-ep.Recv():
			if !ok {
				return got
			}
			got = append(got, int(m.Payload[0])|int(m.Payload[1])<<8)
		case <-deadline:
			return got
		}
	}
	return got
}

func seqMsg(i int) Message {
	return Message{Type: "seq", Payload: []byte{byte(i), byte(i >> 8)}}
}

// TestTCPChannelFIFO is the TCP twin of TestMemNetworkChannelFIFO: a burst of
// messages over one link must arrive in send order.
func TestTCPChannelFIFO(t *testing.T) {
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

	const msgs = 500
	for i := 0; i < msgs; i++ {
		if err := a.Send(b.Addr(), seqMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := collectSeqs(b, msgs, 5*time.Second)
	if len(got) != msgs {
		t.Fatalf("received %d of %d messages", len(got), msgs)
	}
	for i, s := range got {
		if s != i {
			t.Fatalf("delivery %d carried sequence %d: link reordered", i, s)
		}
	}
	// The sender gathers queued frames into one write; the counter (bumped
	// after the write returns) still counts frames.
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().Sent != msgs && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := a.Stats(); st.Sent != msgs || st.Dropped != 0 {
		t.Fatalf("sender counted %d frames sent and %d dropped, want %d and 0", st.Sent, st.Dropped, msgs)
	}
}

// TestTCPFIFOAcrossPeerRestart kills the receiving endpoint mid-stream
// (partition), restarts it on the same address (heal), and asserts the
// delivered sequence is an in-order subsequence with no duplicates: messages
// may be lost while the peer is down (at-most-once), but what arrives — on
// either side of the outage — must respect send order.
func TestTCPFIFOAcrossPeerRestart(t *testing.T) {
	a, err := ListenTCPConfig("127.0.0.1:0", TCPConfig{ReconnectMin: 5 * time.Millisecond, WriteTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()

	const phase = 100
	for i := 0; i < phase; i++ {
		if err := a.Send(addr, seqMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	first := collectSeqs(b, phase, 5*time.Second)
	if len(first) != phase {
		t.Fatalf("phase 1: received %d of %d", len(first), phase)
	}

	// Partition: the peer endpoint dies.
	b.Close()
	for i := phase; i < 2*phase; i++ {
		// Sends while the peer is down queue (or drop on overflow) — they
		// must never error in a way that loses later messages' positions.
		if err := a.Send(addr, seqMsg(i)); err != nil && !errors.Is(err, ErrSendQueueFull) {
			t.Fatalf("send while peer down: %v", err)
		}
		// The sender learns of the break from a failed write, and one write
		// carries whatever is queued: until it has noticed, pace the sends,
		// so that the break costs the frames in flight and not the test's
		// whole stream.
		if a.Stats().Reconnects == 0 {
			time.Sleep(time.Millisecond)
		}
	}

	// Heal: a new process takes over the same address.
	b2, err := ListenTCP(addr)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer b2.Close()
	for i := 2 * phase; i < 3*phase; i++ {
		if err := a.Send(addr, seqMsg(i)); err != nil {
			t.Fatal(err)
		}
	}

	// The post-restart endpoint must see an in-order, duplicate-free
	// subsequence that includes every post-heal message.
	got := collectSeqs(b2, 2*phase, 3*time.Second)
	last := -1
	for _, s := range got {
		if s <= last {
			t.Fatalf("sequence %d arrived after %d: reordered or duplicated across reconnect", s, last)
		}
		last = s
	}
	if last != 3*phase-1 {
		t.Fatalf("last delivered sequence = %d, want %d (post-heal tail lost)", last, 3*phase-1)
	}
}

// dialLog returns a TCPConfig with a 10 s redial backoff whose Logf counts
// failed dials, and the counter.
func dialLog() (TCPConfig, *atomic.Int64) {
	var fails atomic.Int64
	return TCPConfig{
		ReconnectMin: 10 * time.Second,
		ReconnectMax: 10 * time.Second,
		Logf: func(format string, args ...interface{}) {
			if strings.Contains(format, ": dial ") {
				fails.Add(1)
			}
		},
	}, &fails
}

// waitFor polls cond for up to d.
func waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestTCPRedialWhenPeerConnects: a link backing off from a peer that was not
// listening redials as soon as that peer connects to us, instead of sleeping
// out a backoff of 5 to 15 seconds, and still delivers its queued message
// exactly once.
func TestTCPRedialWhenPeerConnects(t *testing.T) {
	cfg, fails := dialLog()
	a, err := ListenTCPConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	if err := a.Send(addr, seqMsg(7)); err != nil {
		t.Fatal(err)
	}
	if !waitFor(5*time.Second, func() bool { return fails.Load() > 0 }) {
		t.Fatal("the dial to an address nobody listens on never failed")
	}

	b, err := ListenTCP(addr)
	if err != nil {
		t.Fatalf("listen on %s: %v", addr, err)
	}
	defer b.Close()
	if err := b.Send(a.Addr(), seqMsg(1)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if got := collectSeqs(b, 1, time.Second); len(got) != 1 || got[0] != 7 {
		t.Fatalf("received %v within 1s of the peer connecting, want [7]: the link slept out its backoff", got)
	}
	t.Logf("queued message delivered %v after the peer connected", time.Since(start))
	if extra := collectSeqs(b, 1, 200*time.Millisecond); len(extra) != 0 {
		t.Fatalf("received %v more: the queued message was delivered twice", extra)
	}
}

// TestTCPStaleWakeKeepsBackoff: a wake that arrives while the link is
// connected is stale once the link breaks, and must not cut the next backoff
// short — against a peer that is really down the dial rate stays the
// backoff's.
func TestTCPStaleWakeKeepsBackoff(t *testing.T) {
	cfg, fails := dialLog()
	a, err := ListenTCPConfig("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()

	// The link is up, then the peer connects to us: a wake for a link that
	// is not backing off.
	if err := a.Send(addr, seqMsg(0)); err != nil {
		t.Fatal(err)
	}
	if got := collectSeqs(b, 1, 5*time.Second); len(got) != 1 {
		t.Fatal("the link never came up")
	}
	if err := b.Send(a.Addr(), seqMsg(1)); err != nil {
		t.Fatal(err)
	}
	if got := collectSeqs(a, 1, 5*time.Second); len(got) != 1 {
		t.Fatal("the peer's connection never came up")
	}

	// The peer dies; keep sending until the link has noticed and its first
	// redial has failed.
	b.Close()
	broke := waitFor(5*time.Second, func() bool {
		if err := a.Send(addr, seqMsg(2)); err != nil && !errors.Is(err, ErrSendQueueFull) {
			t.Fatalf("send while peer down: %v", err)
		}
		return fails.Load() > 0
	})
	if !broke {
		t.Fatal("the link never redialled the dead peer")
	}
	time.Sleep(300 * time.Millisecond)
	if n := fails.Load(); n != 1 {
		t.Fatalf("%d failed dials within 300ms of the first, want 1: a stale wake cut the backoff short", n)
	}
}

// TestTCPDeadPeerBackpressure pins the satellite contract: a peer that stays
// down fills the bounded send queue, after which Send fails fast with a
// typed, retryable error that names the peer — never a silent drop, never an
// unbounded block.
func TestTCPDeadPeerBackpressure(t *testing.T) {
	a, err := ListenTCPConfig("127.0.0.1:0", TCPConfig{
		SendQueue:    8,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// A TCP listener that never accepts still completes connections (kernel
	// backlog), so use a port nothing listens on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	var overflow error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(dead, Message{Type: "x"}); err != nil {
			overflow = err
			break
		}
	}
	if overflow == nil {
		t.Fatal("send queue to a dead peer never filled")
	}
	if !errors.Is(overflow, ErrSendQueueFull) {
		t.Fatalf("overflow error = %v, want ErrSendQueueFull", overflow)
	}
	var pe *PeerError
	if !errors.As(overflow, &pe) || pe.Peer != dead {
		t.Fatalf("overflow error = %#v, want *PeerError naming %s", overflow, dead)
	}
	if s := a.Stats(); s.Dropped == 0 {
		t.Fatalf("overflow not counted: stats = %+v", s)
	}
}

// TestTCPHandshakeMismatch: a stream that does not open with the exact
// magic+version header is rejected before any frame is decoded, and the
// failure is counted — mismatched binaries fail fast and visibly.
func TestTCPHandshakeMismatch(t *testing.T) {
	var logMu sync.Mutex // Logf is called from concurrent per-stream readLoops
	var logged []string
	ep, err := ListenTCPConfig("127.0.0.1:0", TCPConfig{
		Logf: func(format string, args ...interface{}) {
			logMu.Lock()
			logged = append(logged, format)
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	// Wrong magic.
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("HTTP/1.1 GET /\r\n"))
	conn.Close()

	// Right magic, wrong version.
	conn2, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn2.Write([]byte(tcpMagic))
	conn2.Write([]byte{tcpVersion + 1})
	conn2.Close()

	deadline := time.Now().Add(2 * time.Second)
	for ep.Stats().BadHandshakes < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := ep.Stats().BadHandshakes; n < 2 {
		t.Fatalf("BadHandshakes = %d, want 2", n)
	}
	select {
	case m := <-ep.Recv():
		t.Fatalf("garbage stream delivered a message: %+v", m)
	default:
	}
}

// TestTCPHandshakeVersionError checks the decode side reports a clear,
// actionable error for a version skew.
func TestTCPHandshakeVersionError(t *testing.T) {
	err := readHandshake(strings.NewReader(tcpMagic + "\x7f"))
	if !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v, want ErrBadHandshake", err)
	}
	if !strings.Contains(err.Error(), "version 127") {
		t.Fatalf("error should name the peer version: %v", err)
	}
}

// TestTCPFrameRoundTrip exercises the varint frame codec directly, including
// empty fields and payload reuse.
func TestTCPFrameRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: "ab.data", From: "127.0.0.1:1", To: "127.0.0.1:2", Payload: []byte("hello")},
		{Type: "", From: "", To: "", Payload: nil},
		{Type: "fd.heartbeat", From: "x", To: "y", Payload: make([]byte, 70000)},
	}
	var buf []byte
	for _, m := range msgs {
		buf = appendFrame(buf, m)
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	var scratch []byte
	var got Message
	for i, want := range msgs {
		var err error
		got, scratch, err = readFrame(r, scratch, got)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.From != want.From || got.To != want.To || string(got.Payload) != string(want.Payload) {
			t.Fatalf("frame %d round-trip mismatch", i)
		}
	}
}

// TestTCPReadFrameSharesRepeatedStrings: behind a frame with the same Type,
// From and To, a frame costs one allocation, its payload.
func TestTCPReadFrameSharesRepeatedStrings(t *testing.T) {
	frame := appendFrame(nil, Message{Type: "ab.order", From: "127.0.0.1:7001", To: "127.0.0.1:7002", Payload: []byte("p")})
	src := bytes.NewReader(frame)
	r := bufio.NewReader(src)
	var scratch []byte
	var m Message
	read := func() {
		src.Reset(frame)
		r.Reset(src)
		var err error
		if m, scratch, err = readFrame(r, scratch, m); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(100, read); allocs > 1 {
		t.Fatalf("a repeated frame costs %v allocations, want 1", allocs)
	}
	if m.Type != "ab.order" || m.From != "127.0.0.1:7001" || m.To != "127.0.0.1:7002" || string(m.Payload) != "p" {
		t.Fatalf("decoded %+v", m)
	}
}

// TestTCPIdleConnectionIsClosed: the idle deadline is moved once per quarter
// of ReadIdleTimeout, not per frame, so a connection that falls silent is
// closed 0.75 to 1 times the timeout after its last frame — and never while
// frames keep coming, however long.
func TestTCPIdleConnectionIsClosed(t *testing.T) {
	const idle = 400 * time.Millisecond
	ep, err := ListenTCPConfig("127.0.0.1:0", TCPConfig{ReadIdleTimeout: idle})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHandshake(conn); err != nil {
		t.Fatal(err)
	}
	if err := readHandshake(conn); err != nil {
		t.Fatal(err)
	}
	frame := appendFrame(nil, Message{Type: "t", From: "x", To: ep.Addr()})
	var last time.Time
	for start := time.Now(); time.Since(start) < 2*idle; time.Sleep(idle / 16) {
		last = time.Now()
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("the connection broke %v into a steady stream: %v", time.Since(start), err)
		}
		select {
		case <-ep.Recv():
		case <-time.After(idle / 2):
			t.Fatal("a frame of the steady stream did not arrive")
		}
	}
	conn.SetReadDeadline(time.Now().Add(10 * idle))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on the silent connection: %v, want EOF from the endpoint closing it", err)
	}
	if silent := time.Since(last); silent < idle*3/4-idle/16 || silent > 3*idle {
		t.Fatalf("closed %v after the last frame, want between 0.75 and 1 times %v", silent, idle)
	}
}

// TestTCPInboxOverflowDropsAndCounts: the bounded inbox sheds load instead
// of blocking the socket, and the drops are observable.
func TestTCPInboxOverflowDropsAndCounts(t *testing.T) {
	b, err := ListenTCPConfig("127.0.0.1:0", TCPConfig{Inbox: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	const burst = 64
	for i := 0; i < burst; i++ {
		if err := a.Send(b.Addr(), seqMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for a.Stats().Sent < burst && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	// Nothing is reading b's inbox, so at most Inbox messages are buffered
	// and the rest must be counted as dropped — not block the read loop.
	deadline = time.Now().Add(3 * time.Second)
	for b.Stats().InboxDropped == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if d := b.Stats().InboxDropped; d == 0 {
		t.Fatal("inbox overflow was not counted")
	}
}
