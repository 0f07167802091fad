package transport

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// MemNetwork is an in-memory network connecting endpoints by address, with
// the TCP transport's delivery model: each directed (from, to) link is a
// bounded FIFO queue drained by one goroutine, which waits out each frame's
// drawn latency and then calls the destination's handler (SetHandler).  So
// handlers run concurrently across links and in send order on each, and a
// full link queue drops at the sender, whose Send returns a *PeerError
// wrapping ErrSendQueueFull.  A destination without a handler gets the frame
// in its Recv inbox instead, dropping it when the inbox is full.
//
// It supports failure injection: per-message latency and jitter, message
// loss, network partitions, one-way link blocking, and endpoint crashes (a
// crashed endpoint cannot send, and loses every frame sent to it while it is
// down or queued for it when it crashed).  Latency, jitter and loss can be
// changed at runtime — the scenario fuzzer flips them mid-run — and the link
// queues keep every link FIFO across the change.
type MemNetwork struct {
	// mu guards the endpoint table, the partition map and the blocked-link
	// set.  The hot send path only takes it in read mode, and only when a
	// partition or link block is actually installed.
	mu        sync.RWMutex
	endpoints map[string]*memEndpoint
	// latency/jitter are duration nanoseconds and loss is math.Float64bits;
	// all three are atomics so SetLatency/SetJitter/SetLoss can retune a
	// running network without stalling senders.
	latency atomic.Int64
	jitter  atomic.Int64
	loss    atomic.Uint64
	// rngMu guards rng; it is only touched when loss or jitter is configured,
	// so a plain send on a perfect network takes no random-source lock.
	rngMu sync.Mutex
	rng   *rand.Rand
	// partition maps an address to its partition id; addresses in different
	// partitions cannot communicate.  An empty map means no partition.
	partition   map[string]int
	partitioned atomic.Bool
	// blocked holds one-way blocked links (finer-grained than a partition:
	// from→to drops while to→from still flows).
	blocked    map[linkKey]bool
	anyBlocked atomic.Bool

	// Hot counters: every Send touches these, so they are atomics rather
	// than fields under the network mutex.
	sent    atomic.Uint64
	dropped atomic.Uint64
}

// MemOption configures a MemNetwork.
type MemOption func(*MemNetwork)

// WithLatency sets the one-way message latency (default 0).
func WithLatency(d time.Duration) MemOption {
	return func(n *MemNetwork) { n.latency.Store(int64(d)) }
}

// WithLoss sets the probability that any message is silently dropped.
func WithLoss(p float64) MemOption {
	return func(n *MemNetwork) { n.loss.Store(math.Float64bits(p)) }
}

// WithSeed seeds the network's random source (loss and jitter decisions).
func WithSeed(seed int64) MemOption {
	return func(n *MemNetwork) { n.rng = rand.New(rand.NewSource(seed)) }
}

// NewMemNetwork creates an in-memory network.
func NewMemNetwork(opts ...MemOption) *MemNetwork {
	n := &MemNetwork{
		endpoints: make(map[string]*memEndpoint),
		partition: make(map[string]int),
		blocked:   make(map[linkKey]bool),
		rng:       rand.New(rand.NewSource(1)),
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// linkKey identifies one directed sender→receiver link.
type linkKey struct {
	from, to string
}

// memQueueSize bounds each link queue and each Recv inbox, as TCPConfig's
// defaults bound TCP's.
const memQueueSize = 4096

// memEndpoint is an endpoint attached to a MemNetwork.
type memEndpoint struct {
	net   *MemNetwork
	addr  string
	inbox chan Message

	// life counts the endpoint's crashes and recoveries: even while it is
	// up, odd while it is crashed or closed.  A frame carries its
	// destination's life at Send and is delivered only in that life.
	life atomic.Uint64

	// handler, when set, receives every frame; deliver holds handlerMu for
	// reading around each call, so SetHandler returns only once the calls of
	// the previous handler have.
	handlerMu sync.RWMutex
	handler   func(Message)

	// mu serialises the life transitions with the inbox's fill and drain,
	// and guards closed and the outbound links.
	mu     sync.Mutex
	closed bool
	links  map[string]*memLink
}

// Endpoint attaches (or re-attaches) an endpoint with the given address.  If
// an endpoint with this address already exists it is returned.
func (n *MemNetwork) Endpoint(addr string) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[addr]; ok {
		return ep
	}
	ep := &memEndpoint{net: n, addr: addr, inbox: make(chan Message, memQueueSize), links: make(map[string]*memLink)}
	n.endpoints[addr] = ep
	return ep
}

func (n *MemNetwork) lookup(addr string) *memEndpoint {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.endpoints[addr]
}

// Crash simulates the crash of the node at addr: its endpoint stops receiving
// and sending, and the frames queued for it — on its links or in its inbox —
// are never delivered, not even after Recover.
func (n *MemNetwork) Crash(addr string) {
	if ep := n.lookup(addr); ep != nil {
		ep.mu.Lock()
		ep.crashLocked()
		ep.mu.Unlock()
	}
}

func (ep *memEndpoint) crashLocked() {
	if ep.life.Load()%2 == 1 {
		return
	}
	ep.life.Add(1)
	for {
		select {
		case <-ep.inbox:
		default:
			return
		}
	}
}

// Recover reverses a Crash: the endpoint starts with nothing queued, like a
// process that rebooted.
func (n *MemNetwork) Recover(addr string) {
	ep := n.lookup(addr)
	if ep == nil {
		return
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.closed && ep.life.Load()%2 == 1 {
		ep.life.Add(1)
	}
}

// Crashed reports whether the endpoint at addr is currently crashed.
func (n *MemNetwork) Crashed(addr string) bool {
	ep := n.lookup(addr)
	return ep != nil && ep.life.Load()%2 == 1
}

// Partition splits the network: each group of addresses can only talk within
// itself.  Addresses not mentioned keep partition id 0.
func (n *MemNetwork) Partition(groups ...[]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]int)
	for i, group := range groups {
		for _, addr := range group {
			n.partition[addr] = i + 1
		}
	}
	n.partitioned.Store(len(n.partition) > 0)
}

// Heal removes any partition.
func (n *MemNetwork) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[string]int)
	n.partitioned.Store(false)
}

// SetLatency changes the one-way message latency at runtime.  In-flight
// messages keep the delay they drew; the FIFO-per-link contract holds across
// the change.
func (n *MemNetwork) SetLatency(d time.Duration) { n.latency.Store(int64(d)) }

// SetJitter sets the uniform random component in [0, d] added to the
// latency; it may be changed at runtime.
func (n *MemNetwork) SetJitter(d time.Duration) { n.jitter.Store(int64(d)) }

// SetLoss changes the message-loss probability at runtime.
func (n *MemNetwork) SetLoss(p float64) { n.loss.Store(math.Float64bits(p)) }

// BlockLink blocks the one-way link from→to: messages sent over it are
// dropped while the reverse direction keeps flowing.  Idempotent.
func (n *MemNetwork) BlockLink(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[linkKey{from: from, to: to}] = true
	n.anyBlocked.Store(true)
}

// UnblockLink reverses one BlockLink.
func (n *MemNetwork) UnblockLink(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, linkKey{from: from, to: to})
	n.anyBlocked.Store(len(n.blocked) > 0)
}

// UnblockAllLinks removes every one-way link block.
func (n *MemNetwork) UnblockAllLinks() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[linkKey]bool)
	n.anyBlocked.Store(false)
}

// Stats returns the number of messages sent and dropped (loss, partitions,
// blocked links, crashed destinations, full link queues and full inboxes all
// count as drops).  The counters are atomics, so a concurrent Stats never
// stalls senders.
func (n *MemNetwork) Stats() (sent, dropped uint64) {
	return n.sent.Load(), n.dropped.Load()
}

func (n *MemNetwork) reachable(from, to string) bool {
	if n.anyBlocked.Load() {
		n.mu.RLock()
		b := n.blocked[linkKey{from: from, to: to}]
		n.mu.RUnlock()
		if b {
			return false
		}
	}
	if !n.partitioned.Load() {
		return true
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.partition[from] == n.partition[to]
}

// Addr implements Endpoint.
func (ep *memEndpoint) Addr() string { return ep.addr }

// Recv implements Endpoint.
func (ep *memEndpoint) Recv() <-chan Message { return ep.inbox }

// SetHandler implements Endpoint: every link into the endpoint calls h for
// its frames, in order for each link and concurrently across links.  nil
// goes back to Recv.  SetHandler returns once every call of the previous
// handler has, so a handler must not call it.
func (ep *memEndpoint) SetHandler(h func(Message)) {
	ep.handlerMu.Lock()
	ep.handler = h
	ep.handlerMu.Unlock()
}

// Close implements Endpoint: the endpoint crashes for good.
func (ep *memEndpoint) Close() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.closed = true
	ep.crashLocked()
	return nil
}

// Send implements Endpoint.
func (ep *memEndpoint) Send(to string, m Message) error {
	if ep.life.Load()%2 == 1 {
		return ErrClosed
	}
	m.From = ep.addr
	m.To = to

	n := ep.net
	n.sent.Add(1)
	dst := n.lookup(to)
	delay := time.Duration(n.latency.Load())
	jitter := time.Duration(n.jitter.Load())
	lossProb := math.Float64frombits(n.loss.Load())
	var loss bool
	if lossProb > 0 || jitter > 0 {
		n.rngMu.Lock()
		loss = lossProb > 0 && n.rng.Float64() < lossProb
		if jitter > 0 {
			delay += time.Duration(n.rng.Int63n(int64(jitter) + 1))
		}
		n.rngMu.Unlock()
	}
	if dst == nil || loss || !n.reachable(ep.addr, to) {
		n.dropped.Add(1)
		return nil
	}
	f := memFrame{m: m, life: dst.life.Load()}
	if f.life%2 == 1 {
		n.dropped.Add(1)
		return nil
	}
	if delay > 0 {
		f.due = time.Now().Add(delay)
	}
	ep.mu.Lock()
	l := ep.links[to]
	if l == nil {
		l = &memLink{to: dst}
		ep.links[to] = l
	}
	ep.mu.Unlock()
	if !l.push(f) {
		n.dropped.Add(1)
		return &PeerError{Peer: to, Err: ErrSendQueueFull}
	}
	return nil
}

// memFrame is one message on a link.
type memFrame struct {
	m    Message
	due  time.Time // when its drawn delay ends; zero without one
	life uint64    // the destination's life at Send
}

// memLink is one directed link: a bounded FIFO queue drained by one
// goroutine, which runs while the link holds frames.
type memLink struct {
	to *memEndpoint

	mu    sync.Mutex
	queue []memFrame
	held  int // frames the drain goroutine took and has not finished
}

// push queues f, starting the drain goroutine if there is none (nothing is
// queued or held), and reports false when the link is full.
func (l *memLink) push(f memFrame) bool {
	l.mu.Lock()
	if len(l.queue)+l.held >= memQueueSize {
		l.mu.Unlock()
		return false
	}
	idle := len(l.queue) == 0 && l.held == 0
	l.queue = append(l.queue, f)
	l.mu.Unlock()
	if idle {
		go l.drain()
		// A new goroutine waits in its creator's run-next slot until the
		// creator blocks, and a handler that sends as it runs may not block
		// for milliseconds: yield, so this link does not fall behind the
		// others into the same endpoint.
		runtime.Gosched()
	}
	return true
}

// drain delivers the queue in order, a batch at a time, and ends when it is
// empty.
func (l *memLink) drain() {
	var batch []memFrame
	for {
		l.mu.Lock()
		clear(batch)
		batch, l.queue = l.queue, batch[:0]
		l.held = len(batch)
		l.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		for _, f := range batch {
			if !f.due.IsZero() {
				time.Sleep(time.Until(f.due))
			}
			l.to.deliver(f)
		}
	}
}

// deliver hands f to the handler, or to the inbox when there is none, unless
// the endpoint crashed since f was sent.
func (ep *memEndpoint) deliver(f memFrame) {
	ep.handlerMu.RLock()
	defer ep.handlerMu.RUnlock()
	if h := ep.handler; h != nil && ep.life.Load() == f.life {
		h(f.m)
		return
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.life.Load() != f.life {
		ep.net.dropped.Add(1)
		return
	}
	select {
	case ep.inbox <- f.m:
	default:
		// Inbox overflow models an overloaded receiver dropping traffic.
		ep.net.dropped.Add(1)
	}
}
