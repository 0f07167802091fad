package transport

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Mux multiplexes several independent virtual networks ("instances") onto one
// base Network.  Each instance sees the full Network interface — endpoints,
// crashes, recoveries — while sharing the base network's physical links, so
// failure injection applied to the base (latency, loss, partitions, blocked
// links, crashes) affects every instance's traffic at once, exactly like
// co-located processes sharing one NIC.
//
// The partitioned cluster uses one instance per keyspace partition: every
// partition runs its own abcast/router stack over the same simulated wire.
// Messages are namespaced on the wire by prefixing Message.Type with
// "<instance>!"; the base endpoint's handler strips the prefix and calls the
// matching instance endpoint's handler on the same goroutine, so protocol
// handlers never see the namespace and run as the base network runs them.
type Mux struct {
	base Network

	mu    sync.Mutex
	insts map[string]*muxNet
	eps   map[string]Endpoint // base endpoints, one per address
}

// muxSep separates the instance namespace from the payload message type on
// the wire.  No protocol type contains it.
const muxSep = "!"

// NewMux wraps base so independent protocol stacks can share it.
func NewMux(base Network) *Mux {
	return &Mux{
		base:  base,
		insts: make(map[string]*muxNet),
		eps:   make(map[string]Endpoint),
	}
}

// Instance returns the virtual network for the given namespace, creating it
// on first use.  Namespaces must not contain the "!" separator.
func (x *Mux) Instance(ns string) Network {
	x.mu.Lock()
	defer x.mu.Unlock()
	if inst, ok := x.insts[ns]; ok {
		return inst
	}
	inst := &muxNet{mux: x, ns: ns, eps: make(map[string]*muxEndpoint)}
	x.insts[ns] = inst
	return inst
}

// baseEndpoint returns the base endpoint for addr, attaching it on first use
// with route as its handler: one base endpoint serves every instance.
func (x *Mux) baseEndpoint(addr string) Endpoint {
	x.mu.Lock()
	defer x.mu.Unlock()
	ep, ok := x.eps[addr]
	if !ok {
		ep = x.base.Endpoint(addr)
		ep.SetHandler(x.route)
		x.eps[addr] = ep
	}
	return ep
}

// route delivers one inbound base message to the matching instance endpoint.
// Messages with no namespace prefix, an unknown instance, or no attached
// endpoint are dropped (same best-effort contract as the base network).
func (x *Mux) route(m Message) {
	i := strings.Index(m.Type, muxSep)
	if i < 0 {
		return
	}
	ns := m.Type[:i]
	m.Type = m.Type[i+1:]
	x.mu.Lock()
	inst, ok := x.insts[ns]
	x.mu.Unlock()
	if !ok {
		return
	}
	inst.mu.Lock()
	vep, ok := inst.eps[m.To]
	inst.mu.Unlock()
	if !ok {
		return
	}
	vep.deliver(m)
}

// muxNet is one instance's view of the shared network.
type muxNet struct {
	mux *Mux
	ns  string

	mu  sync.Mutex
	eps map[string]*muxEndpoint
}

// Endpoint implements Network.  Like MemNetwork, the same endpoint is
// returned across re-attachments of one address.
func (n *muxNet) Endpoint(addr string) Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.eps[addr]; ok {
		return ep
	}
	ep := &muxEndpoint{net: n, addr: addr, base: n.mux.baseEndpoint(addr)}
	n.eps[addr] = ep
	return ep
}

// Crash implements Network.  A crash is a whole-server event: it silences the
// base endpoint, so every instance at addr stops sending and receiving, and
// the base network discards what was queued for it.
func (n *muxNet) Crash(addr string) {
	n.mux.base.Crash(addr)
	n.setCrashed(addr, true)
}

// Recover implements Network.
func (n *muxNet) Recover(addr string) {
	n.mux.base.Recover(addr)
	n.setCrashed(addr, false)
}

func (n *muxNet) setCrashed(addr string, crashed bool) {
	n.mu.Lock()
	ep := n.eps[addr]
	n.mu.Unlock()
	if ep != nil {
		ep.crashed.Store(crashed)
	}
}

// muxEndpoint is one instance's attachment at one address.  It has no inbox:
// what arrives for it goes to its handler, or nowhere.
type muxEndpoint struct {
	net  *muxNet
	addr string
	base Endpoint

	crashed, closed atomic.Bool

	// handlerMu is held for reading around each handler call, as on
	// memEndpoint.
	handlerMu sync.RWMutex
	handler   func(Message)
}

// Addr implements Endpoint.
func (ep *muxEndpoint) Addr() string { return ep.addr }

// Recv implements Endpoint: nothing is ever queued for it.
func (ep *muxEndpoint) Recv() <-chan Message { return nil }

// SetHandler implements Endpoint.  Without a handler, inbound messages are
// dropped.
func (ep *muxEndpoint) SetHandler(h func(Message)) {
	ep.handlerMu.Lock()
	ep.handler = h
	ep.handlerMu.Unlock()
}

// Close implements Endpoint.
func (ep *muxEndpoint) Close() error {
	ep.closed.Store(true)
	return nil
}

// Send implements Endpoint: the message rides the base network with its type
// prefixed by the instance namespace.
func (ep *muxEndpoint) Send(to string, m Message) error {
	if ep.closed.Load() || ep.crashed.Load() {
		return ErrClosed
	}
	m.Type = ep.net.ns + muxSep + m.Type
	return ep.base.Send(to, m)
}

// deliver calls the handler with an inbound (already de-namespaced) message.
func (ep *muxEndpoint) deliver(m Message) {
	ep.handlerMu.RLock()
	defer ep.handlerMu.RUnlock()
	if h := ep.handler; h != nil && !ep.closed.Load() && !ep.crashed.Load() {
		h(m)
	}
}
