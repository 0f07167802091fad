package transport

import (
	"bufio"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPEndpoint is an Endpoint backed by real TCP connections, hardened for
// production multi-process clusters:
//
//   - messages are varint-framed (see wire.go) behind a magic/version
//     handshake, so mismatched binaries fail fast instead of mis-decoding;
//   - each peer has a dedicated sender goroutine draining a bounded FIFO
//     queue over one persistent connection, so the per-link FIFO contract of
//     MemNetwork (which the replication protocols rely on) holds across
//     reconnects: a broken connection is re-dialled with exponential backoff
//     plus jitter while queued messages wait in order, and the backoff ends
//     early when the peer connects to us — the first frame of an inbound
//     connection names its sender, proof that it is up again;
//   - writes carry a deadline, so a silently dead connection (power loss,
//     partition — no RST) is detected promptly instead of blocking the link;
//   - sending to an unreachable peer is not an error until the queue fills;
//     then Send surfaces a typed, retryable *PeerError wrapping
//     ErrSendQueueFull rather than silently dropping the message;
//   - with a handler set (SetHandler, as gcs.Router does), each inbound
//     connection's read loop calls it for every frame, so a message reaches
//     its protocol handler without a hand-off: handlers run concurrently for
//     different peers and in order for each, and a slow one backpressures its
//     sender through TCP until that sender's queue fails with
//     ErrSendQueueFull;
//   - with none, frames queue in a bounded inbox for Recv with an explicit
//     drop policy (count and discard, like an overloaded receiver on a lossy
//     LAN);
//   - inbound reads carry an idle deadline so leaked connections do not
//     accumulate.
//
// Like MemNetwork, delivery is at-most-once: messages in flight on a
// connection that breaks — the sender writes whatever is queued as one burst
// — may be lost (a failed write counts every frame it carried as dropped;
// nothing is retransmitted, so no duplicates and no reordering).
type TCPEndpoint struct {
	cfg      TCPConfig
	addr     string
	listener net.Listener
	inbox    chan Message

	// handler, when set, receives every inbound frame on its read loop;
	// SetHandler takes handlerMu for writing, so it returns only once the
	// calls of the previous handler have.
	handlerMu sync.RWMutex
	handler   func(Message)

	// peers is a copy-on-write snapshot and closed an atomic, so the two
	// per-message paths — Send's peer lookup and readLoop's closed check —
	// take no lock; mu serialises the writers (first Send to a peer, Close)
	// and guards inConns.
	peers   atomic.Pointer[map[string]*tcpPeer]
	closed  atomic.Bool
	mu      sync.Mutex
	inConns map[net.Conn]struct{}
	wg      sync.WaitGroup // accept loop and read loops

	sent         atomic.Uint64
	dropped      atomic.Uint64
	inboxDropped atomic.Uint64
	reconnects   atomic.Uint64
	badHandshake atomic.Uint64
}

// TCPConfig tunes a TCPEndpoint.  The zero value gives LAN-appropriate
// defaults; see docs/OPERATIONS.md for WAN guidance.
type TCPConfig struct {
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout is the per-message write deadline; a write that cannot
	// complete within it declares the connection dead (default 3s).
	WriteTimeout time.Duration
	// ReadIdleTimeout closes an inbound connection that has been silent for
	// 0.75 to 1 times this long — the deadline moves at most once per quarter
	// of it, not with every frame (default 5 minutes; clusters running a
	// failure detector heartbeat far more often).  Negative disables the idle
	// deadline.
	ReadIdleTimeout time.Duration
	// ReconnectMin/ReconnectMax bound the exponential redial backoff
	// (defaults 20ms and 1s); actual sleeps are jittered ±50%.  A sleep is
	// cut short, and the backoff reset to ReconnectMin, when the peer opens
	// a connection to us.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// SendQueue is the per-peer outbound queue capacity (default 4096).
	// When a peer is down, up to SendQueue messages wait in FIFO order;
	// beyond that Send fails fast with ErrSendQueueFull.
	SendQueue int
	// Inbox is the capacity of the channel Recv returns (default 4096); an
	// endpoint with a handler queues nothing.
	Inbox int
	// Logf, when set, receives diagnostic messages (reconnects, handshake
	// failures, dropped frames).  Nil silences them.
	Logf func(format string, args ...interface{})
}

func (c *TCPConfig) applyDefaults() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 3 * time.Second
	}
	if c.ReadIdleTimeout == 0 {
		c.ReadIdleTimeout = 5 * time.Minute
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 20 * time.Millisecond
	}
	if c.ReconnectMax < c.ReconnectMin {
		c.ReconnectMax = time.Second
	}
	if c.SendQueue <= 0 {
		c.SendQueue = 4096
	}
	if c.Inbox <= 0 {
		c.Inbox = 4096
	}
}

func (c *TCPConfig) logf(format string, args ...interface{}) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// ErrSendQueueFull is wrapped by the *PeerError a Send returns when a peer's
// bounded outbound queue is exhausted (the peer is down or too slow).  The
// condition is transient: accepted messages keep their FIFO positions and the
// caller may retry once the queue drains.
var ErrSendQueueFull = errors.New("transport: peer send queue full")

// PeerError is the typed, retryable error of the TCP send path: it names the
// peer and wraps the underlying condition, so callers can errors.Is against
// ErrSendQueueFull (backpressure) or ErrBadHandshake (incompatible peer).
type PeerError struct {
	Peer string
	Err  error
}

// Error implements error.
func (e *PeerError) Error() string {
	return fmt.Sprintf("transport: peer %s: %v", e.Peer, e.Err)
}

// Unwrap exposes the underlying condition to errors.Is/errors.As.
func (e *PeerError) Unwrap() error { return e.Err }

// TCPStats are cumulative counters of one endpoint.
type TCPStats struct {
	// Sent counts frames successfully written to a connection.
	Sent uint64
	// Dropped counts messages lost on the send path: queue overflow and
	// frames that failed mid-write on a breaking connection.
	Dropped uint64
	// InboxDropped counts inbound frames discarded because the inbox was
	// full (receiver overload; only without a handler).
	InboxDropped uint64
	// Reconnects counts outbound connections re-established after a failure.
	Reconnects uint64
	// BadHandshakes counts connections rejected for magic/version mismatch.
	BadHandshakes uint64
}

// ListenTCP creates an endpoint listening on addr (e.g. "127.0.0.1:7001")
// with default tuning.  The endpoint's address is the listener's actual
// address, which allows addr to use port 0 for tests.
func ListenTCP(addr string) (*TCPEndpoint, error) {
	return ListenTCPConfig(addr, TCPConfig{})
}

// ListenTCPConfig creates an endpoint with explicit tuning.
func ListenTCPConfig(addr string, cfg TCPConfig) (*TCPEndpoint, error) {
	cfg.applyDefaults()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &TCPEndpoint{
		cfg:      cfg,
		addr:     l.Addr().String(),
		listener: l,
		inbox:    make(chan Message, cfg.Inbox),
		inConns:  make(map[net.Conn]struct{}),
	}
	ep.peers.Store(&map[string]*tcpPeer{})
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

func (ep *TCPEndpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		conn, err := ep.listener.Accept()
		if err != nil {
			return
		}
		ep.mu.Lock()
		if ep.closed.Load() {
			ep.mu.Unlock()
			conn.Close()
			return
		}
		ep.inConns[conn] = struct{}{}
		ep.mu.Unlock()
		ep.wg.Add(1)
		go ep.readLoop(conn)
	}
}

func (ep *TCPEndpoint) readLoop(conn net.Conn) {
	defer ep.wg.Done()
	defer func() {
		conn.Close()
		ep.mu.Lock()
		delete(ep.inConns, conn)
		ep.mu.Unlock()
	}()

	// Bidirectional handshake: announce ourselves, then validate the peer
	// before decoding anything.  A mismatch is logged and the connection
	// dropped — fail fast beats mis-decoding.
	conn.SetDeadline(time.Now().Add(ep.cfg.WriteTimeout + ep.cfg.DialTimeout))
	if err := writeHandshake(conn); err != nil {
		return
	}
	if err := readHandshake(conn); err != nil {
		ep.badHandshake.Add(1)
		ep.cfg.logf("transport %s: rejected inbound connection from %s: %v", ep.addr, conn.RemoteAddr(), err)
		return
	}
	conn.SetDeadline(time.Time{})

	r := bufio.NewReaderSize(conn, 64<<10)
	var scratch []byte
	var m Message       // the previous frame
	var armed time.Time // when the idle deadline was last moved
	for first := true; ; first = false {
		if idle := ep.cfg.ReadIdleTimeout; idle > 0 {
			// Not per frame: a deadline at most a quarter stale is as good.
			if now := time.Now(); now.Sub(armed) >= idle/4 {
				conn.SetReadDeadline(now.Add(idle))
				armed = now
			}
		}
		var err error
		m, scratch, err = readFrame(r, scratch, m)
		if err != nil {
			if errors.Is(err, errFrameTooLarge) || errors.Is(err, errBadFrame) {
				ep.cfg.logf("transport %s: closing connection from %s: %v", ep.addr, conn.RemoteAddr(), err)
			}
			return
		}
		if ep.closed.Load() {
			return
		}
		if first {
			// The sender is up: a link to it backing off may redial now.
			if p := (*ep.peers.Load())[m.From]; p != nil {
				select {
				case p.wake <- struct{}{}:
				default:
				}
			}
		}
		ep.handlerMu.RLock()
		if h := ep.handler; h != nil {
			h(m)
		} else {
			select {
			case ep.inbox <- m:
			default:
				// Bounded inbox, explicit drop policy: an overloaded receiver
				// sheds load like a lossy network; protocols already tolerate
				// loss (retransmission/majority logic above the transport).
				ep.inboxDropped.Add(1)
			}
		}
		ep.handlerMu.RUnlock()
	}
}

// SetHandler makes the read loops call h for every inbound frame instead of
// queueing it for Recv: in order for each peer, concurrently across peers.
// nil goes back to Recv.  SetHandler returns once every call of the previous
// handler has, so a handler must not call it.
func (ep *TCPEndpoint) SetHandler(h func(Message)) {
	ep.handlerMu.Lock()
	ep.handler = h
	ep.handlerMu.Unlock()
}

// Addr implements Endpoint.
func (ep *TCPEndpoint) Addr() string { return ep.addr }

// Recv implements Endpoint.
func (ep *TCPEndpoint) Recv() <-chan Message { return ep.inbox }

// Stats returns a snapshot of the endpoint's counters.
func (ep *TCPEndpoint) Stats() TCPStats {
	return TCPStats{
		Sent:          ep.sent.Load(),
		Dropped:       ep.dropped.Load(),
		InboxDropped:  ep.inboxDropped.Load(),
		Reconnects:    ep.reconnects.Load(),
		BadHandshakes: ep.badHandshake.Load(),
	}
}

// Send implements Endpoint.  The message is appended to the peer's FIFO
// queue and written by the peer's sender goroutine; Send itself never blocks
// on the network.  A full queue (peer down past the buffering horizon, or
// severely backlogged) fails fast with a *PeerError wrapping
// ErrSendQueueFull — typed and retryable, never a silent drop.
func (ep *TCPEndpoint) Send(to string, m Message) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	p := (*ep.peers.Load())[to]
	if p == nil {
		if p = ep.addPeer(to); p == nil {
			return ErrClosed
		}
	}

	m.From = ep.addr
	m.To = to
	select {
	case p.queue <- m:
		return nil
	default:
		ep.dropped.Add(1)
		return &PeerError{Peer: to, Err: ErrSendQueueFull}
	}
}

// addPeer starts the link to a peer on the first Send to it (nil once the
// endpoint is closed) and publishes a new peers snapshot.
func (ep *TCPEndpoint) addPeer(to string) *tcpPeer {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed.Load() {
		return nil
	}
	old := *ep.peers.Load()
	if p := old[to]; p != nil {
		return p
	}
	p := &tcpPeer{
		ep:    ep,
		addr:  to,
		queue: make(chan Message, ep.cfg.SendQueue),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	next := maps.Clone(old)
	next[to] = p
	ep.peers.Store(&next)
	go p.loop()
	return p
}

// Close implements Endpoint.
func (ep *TCPEndpoint) Close() error {
	ep.mu.Lock()
	if ep.closed.Swap(true) {
		ep.mu.Unlock()
		return nil
	}
	peers := *ep.peers.Swap(&map[string]*tcpPeer{})
	for conn := range ep.inConns {
		conn.Close()
	}
	ep.mu.Unlock()

	for _, p := range peers {
		close(p.stop)
	}
	for _, p := range peers {
		<-p.done
	}
	err := ep.listener.Close()
	ep.wg.Wait()
	close(ep.inbox)
	return err
}

// tcpPeer is the outbound half of one link: a bounded FIFO queue drained by
// a single goroutine over one persistent connection.
type tcpPeer struct {
	ep    *TCPEndpoint
	addr  string
	queue chan Message
	wake  chan struct{} // the peer connected to us: cut the backoff short
	stop  chan struct{}
	done  chan struct{}
}

// maxWriteBurst bounds how many bytes of queued frames one write gathers, so
// a deep queue still reaches the wire in steps the write deadline was sized
// for.
const maxWriteBurst = 64 << 10

func (p *tcpPeer) loop() {
	defer close(p.done)
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	backoff := p.ep.cfg.ReconnectMin
	var buf []byte
	for {
		select {
		case <-p.stop:
			return
		case m := <-p.queue:
			if conn == nil {
				conn = p.dial(&backoff)
				if conn == nil {
					return // stopped while backing off
				}
			}
			// Whatever else is already queued shares the write: one deadline
			// and one system call for the burst, in queue order.
			buf = appendFrame(buf[:0], m)
			frames := uint64(1)
			for more := true; more && len(buf) < maxWriteBurst; {
				select {
				case m = <-p.queue:
					buf = appendFrame(buf, m)
					frames++
				default:
					more = false
				}
			}
			conn.SetWriteDeadline(time.Now().Add(p.ep.cfg.WriteTimeout))
			if _, err := conn.Write(buf); err != nil {
				// The frames may have partially reached the peer: treat them
				// all as lost (at-most-once — no retransmission, so no
				// duplicates and no reordering) and re-dial for the rest of
				// the queue.
				conn.Close()
				conn = nil
				p.ep.dropped.Add(frames)
				p.ep.reconnects.Add(1)
				p.ep.cfg.logf("transport %s: connection to %s broke (%v); reconnecting", p.ep.addr, p.addr, err)
				continue
			}
			p.ep.sent.Add(frames)
		}
	}
}

// dial establishes a handshaken connection, retrying with jittered
// exponential backoff until it succeeds or the endpoint stops.  A new
// inbound connection from the peer ends a backoff early.  Returns nil only
// when stopped.
func (p *tcpPeer) dial(backoff *time.Duration) net.Conn {
	cfg := &p.ep.cfg
	// A wake from before this first attempt is stale: the attempt is newer
	// evidence.
	select {
	case <-p.wake:
	default:
	}
	for {
		conn, err := net.DialTimeout("tcp", p.addr, cfg.DialTimeout)
		if err == nil {
			conn.SetDeadline(time.Now().Add(cfg.WriteTimeout + cfg.DialTimeout))
			hsErr := writeHandshake(conn)
			if hsErr == nil {
				hsErr = readHandshake(conn)
			}
			if hsErr == nil {
				conn.SetDeadline(time.Time{})
				*backoff = cfg.ReconnectMin
				return conn
			}
			conn.Close()
			if errors.Is(hsErr, ErrBadHandshake) {
				p.ep.badHandshake.Add(1)
			}
			cfg.logf("transport %s: handshake with %s failed: %v", p.ep.addr, p.addr, hsErr)
		} else {
			cfg.logf("transport %s: dial %s: %v (retrying in ~%v)", p.ep.addr, p.addr, err, *backoff)
		}
		// Jittered exponential backoff: sleep backoff ±50%, then double.
		sleep := *backoff/2 + time.Duration(rand.Int63n(int64(*backoff)))
		*backoff *= 2
		if *backoff > cfg.ReconnectMax {
			*backoff = cfg.ReconnectMax
		}
		select {
		case <-p.stop:
			return nil
		case <-time.After(sleep):
		case <-p.wake:
			*backoff = cfg.ReconnectMin
		}
	}
}
