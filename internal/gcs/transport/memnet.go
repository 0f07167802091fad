package transport

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// MemNetwork is an in-memory network connecting endpoints by address.  It
// supports failure injection: per-message latency, message loss, network
// partitions, one-way link blocking, and endpoint crashes (a crashed endpoint
// loses every message sent to it and cannot send).  Latency, jitter and loss
// can be changed at runtime — the scenario fuzzer flips them mid-run — without
// ever violating the FIFO-per-channel delivery contract.
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
	blocked    map[chainKey]bool
	anyBlocked atomic.Bool

	// chains serialises delayed deliveries per (from, to) channel: each entry
	// is the completion marker of the channel's most recently scheduled
	// delivery, and the next delivery waits on it before touching the inbox.
	// Without this, two AfterFunc timers with near-equal deadlines race for
	// the destination mutex and can reorder a sender's messages — real LANs
	// (and the TCP transport) are FIFO per channel, and the lazy-propagation
	// protocol relies on that.  Jitter varies WHEN a channel's messages
	// arrive, not their relative order; cross-channel interleaving stays
	// unordered either way.
	chainMu sync.Mutex
	chains  map[chainKey]chan struct{}
	// chained latches true once any delivery has gone through the chain.
	// From then on every send chains, even with the delay knobs back at
	// zero: a fresh synchronous delivery must not overtake an async one
	// still sitting in a timer for the same channel.
	chained atomic.Bool

	// Hot counters: every Send touches these, so they are atomics rather
	// than fields under the network mutex.
	sent    atomic.Uint64
	dropped atomic.Uint64
}

// MemOption configures a MemNetwork.
type MemOption func(*MemNetwork)

// WithLatency sets the one-way message latency (default 0: synchronous,
// order-preserving delivery).
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
		blocked:   make(map[chainKey]bool),
		rng:       rand.New(rand.NewSource(1)),
		chains:    make(map[chainKey]chan struct{}),
	}
	for _, opt := range opts {
		opt(n)
	}
	return n
}

// chainKey identifies one directed sender→receiver channel.
type chainKey struct {
	from, to string
}

// memEndpoint is an endpoint attached to a MemNetwork.
type memEndpoint struct {
	net  *MemNetwork
	addr string

	mu      sync.Mutex
	inbox   chan Message
	crashed bool
	closed  bool
}

const memInboxSize = 4096

// Endpoint attaches (or re-attaches) an endpoint with the given address.  If
// an endpoint with this address already exists it is returned.
func (n *MemNetwork) Endpoint(addr string) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[addr]; ok {
		return ep
	}
	ep := &memEndpoint{net: n, addr: addr, inbox: make(chan Message, memInboxSize)}
	n.endpoints[addr] = ep
	return ep
}

// Crash simulates the crash of the node at addr: its endpoint stops receiving
// and sending, and messages already queued for it are discarded.
func (n *MemNetwork) Crash(addr string) {
	n.mu.Lock()
	ep, ok := n.endpoints[addr]
	n.mu.Unlock()
	if !ok {
		return
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.crashed {
		return
	}
	ep.crashed = true
	// Drain anything already queued: a crashed process loses its volatile
	// state, including undelivered messages.
	for {
		select {
		case <-ep.inbox:
		default:
			return
		}
	}
}

// Recover reverses a Crash: the endpoint starts with an empty inbox, like a
// process that rebooted.
func (n *MemNetwork) Recover(addr string) {
	n.mu.Lock()
	ep, ok := n.endpoints[addr]
	n.mu.Unlock()
	if !ok {
		return
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.crashed = false
}

// Crashed reports whether the endpoint at addr is currently crashed.
func (n *MemNetwork) Crashed(addr string) bool {
	n.mu.Lock()
	ep, ok := n.endpoints[addr]
	n.mu.Unlock()
	if !ok {
		return false
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.crashed
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
// messages keep the delay they drew; the FIFO-per-channel contract holds
// across the change.
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
	n.blocked[chainKey{from: from, to: to}] = true
	n.anyBlocked.Store(true)
}

// UnblockLink reverses one BlockLink.
func (n *MemNetwork) UnblockLink(from, to string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, chainKey{from: from, to: to})
	n.anyBlocked.Store(len(n.blocked) > 0)
}

// UnblockAllLinks removes every one-way link block.
func (n *MemNetwork) UnblockAllLinks() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked = make(map[chainKey]bool)
	n.anyBlocked.Store(false)
}

// Stats returns the number of messages sent and dropped (loss, partitions,
// blocked links and crashed destinations all count as drops).  The counters
// are atomics, so a concurrent Stats never stalls senders.
func (n *MemNetwork) Stats() (sent, dropped uint64) {
	return n.sent.Load(), n.dropped.Load()
}

func (n *MemNetwork) reachable(from, to string) bool {
	if n.anyBlocked.Load() {
		n.mu.RLock()
		b := n.blocked[chainKey{from: from, to: to}]
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

// Close implements Endpoint.
func (ep *memEndpoint) Close() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return nil
	}
	ep.closed = true
	ep.crashed = true
	return nil
}

// Send implements Endpoint.
func (ep *memEndpoint) Send(to string, m Message) error {
	ep.mu.Lock()
	if ep.closed || ep.crashed {
		ep.mu.Unlock()
		return ErrClosed
	}
	ep.mu.Unlock()

	m.From = ep.addr
	m.To = to

	n := ep.net
	n.sent.Add(1)
	n.mu.RLock()
	dst, ok := n.endpoints[to]
	n.mu.RUnlock()
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
	if !ok || loss {
		n.dropped.Add(1)
		return nil
	}

	if !n.reachable(ep.addr, to) {
		n.dropped.Add(1)
		return nil
	}

	deliver := func() {
		dst.mu.Lock()
		defer dst.mu.Unlock()
		if dst.crashed || dst.closed {
			n.dropped.Add(1)
			return
		}
		select {
		case dst.inbox <- m:
		default:
			// Inbox overflow models an overloaded receiver dropping traffic.
			n.dropped.Add(1)
		}
	}
	if delay <= 0 && jitter <= 0 && !n.chained.Load() {
		// Synchronous delivery in the caller's goroutine is trivially FIFO
		// per channel.  The branch keys on the current knobs, not just the
		// drawn delay: on a jitter-only network a zero draw must still go
		// through the chain below, or it would overtake an earlier message
		// of the same channel that drew a longer delay.  And once ANY
		// delivery has chained (n.chained), every later send chains too —
		// a sender's zero-delay message issued right after SetLatency(0)
		// must queue behind its own still-delayed traffic.
		deliver()
		return nil
	}
	// Chain this delivery behind the channel's previous one: timers firing
	// out of order must not reorder a sender's messages to one destination.
	n.chained.Store(true)
	key := chainKey{from: ep.addr, to: to}
	n.chainMu.Lock()
	prev := n.chains[key]
	done := make(chan struct{})
	n.chains[key] = done
	n.chainMu.Unlock()
	time.AfterFunc(delay, func() {
		defer close(done)
		if prev != nil {
			<-prev
		}
		deliver()
	})
	return nil
}
