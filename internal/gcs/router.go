// Package gcs contains the group communication component: message routing,
// failure detection (subpackage fd), classical atomic broadcast (subpackage
// abcast) and the end-to-end atomic broadcast introduced by the paper
// (subpackage e2e).
package gcs

import (
	"maps"
	"strings"
	"sync"
	"sync/atomic"

	"groupsafe/internal/gcs/transport"
)

// Handler processes one inbound message.
type Handler func(transport.Message)

// Router demultiplexes the inbound message stream of an endpoint to protocol
// handlers registered by message type or namespace.  Several protocols
// (failure detector, atomic broadcast, state transfer, replication control
// traffic) share one endpoint per node.
//
// Over an endpoint that can run handlers itself (TCP) the router has no
// goroutine: each connection's read loop dispatches what it reads, so
// handlers run concurrently for different peers and in order for each.  Over
// one that queues (the in-memory network, a Mux instance) one loop dispatches
// everything in arrival order.
type Router struct {
	ep transport.Endpoint

	// table is the immutable routing snapshot dispatch reads without a lock,
	// once per inbound message; Handle swaps in a new one under mu.
	table   atomic.Pointer[routes]
	mu      sync.Mutex
	stopped chan struct{}
	done    chan struct{}
	started bool
}

// handlerEndpoint is an endpoint that calls a handler on the goroutine that
// read the message, and returns from SetHandler once the previous handler's
// calls have (transport.TCPEndpoint).
type handlerEndpoint interface {
	SetHandler(h func(transport.Message))
}

// routes is one routing snapshot, handlers by message type or namespace; it
// is never modified once published.
type routes map[string]Handler

// NewRouter creates a router over the endpoint.  Handle registrations must
// happen before Start (or are picked up dynamically, both are safe).
func NewRouter(ep transport.Endpoint) *Router {
	r := &Router{
		ep:      ep,
		stopped: make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.table.Store(&routes{})
	return r
}

// Endpoint returns the underlying endpoint.
func (r *Router) Endpoint() transport.Endpoint { return r.ep }

// Handle registers a handler under key: a whole message type ("srv.pull") or
// a namespace, which ends in '.' ("ab.").  A message goes to the handler of
// its exact type if there is one, else to that of its namespace — its type up
// to and including the first '.'.
func (r *Router) Handle(key string, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := maps.Clone(*r.table.Load())
	next[key] = h
	r.table.Store(&next)
}

// Send transmits a message through the underlying endpoint.
func (r *Router) Send(to string, m transport.Message) error {
	return r.ep.Send(to, m)
}

// Start begins dispatching: it hands dispatch to an endpoint that runs
// handlers itself, and launches the dispatch loop otherwise.
func (r *Router) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return
	}
	r.started = true
	select {
	case <-r.stopped:
		return
	default:
	}
	if ep, ok := r.ep.(handlerEndpoint); ok {
		ep.SetHandler(r.dispatch)
		return
	}
	go r.loop()
}

func (r *Router) loop() {
	defer close(r.done)
	for {
		select {
		case <-r.stopped:
			return
		case m, ok := <-r.ep.Recv():
			if !ok {
				return
			}
			r.dispatch(m)
		}
	}
}

func (r *Router) dispatch(m transport.Message) {
	table := *r.table.Load()
	h, ok := table[m.Type]
	if !ok {
		if i := strings.IndexByte(m.Type, '.'); i >= 0 {
			h = table[m.Type[:i+1]]
		}
	}
	if h != nil {
		h(m)
	}
}

// Stop ends dispatching and returns once every handler call in flight has
// returned.  It does not close the endpoint.
func (r *Router) Stop() {
	r.mu.Lock()
	started := r.started
	select {
	case <-r.stopped:
		r.mu.Unlock()
		return
	default:
		close(r.stopped)
	}
	r.mu.Unlock()
	if !started {
		return
	}
	if ep, ok := r.ep.(handlerEndpoint); ok {
		ep.SetHandler(nil)
		return
	}
	<-r.done
}
