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
// The router has no goroutine: it is the endpoint's handler, so on every
// network the goroutine of the link a message arrived on dispatches it, and
// handlers run concurrently for different peers and in order for each.
type Router struct {
	ep transport.Endpoint

	// table is the immutable routing snapshot dispatch reads without a lock,
	// once per inbound message; Handle swaps in a new one under mu.
	table            atomic.Pointer[routes]
	mu               sync.Mutex
	started, stopped bool
}

// routes is one routing snapshot, handlers by message type or namespace; it
// is never modified once published.
type routes map[string]Handler

// NewRouter creates a router over the endpoint.  Handle registrations must
// happen before Start (or are picked up dynamically, both are safe).
func NewRouter(ep transport.Endpoint) *Router {
	r := &Router{ep: ep}
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

// Start begins dispatching: the router becomes the endpoint's handler.
func (r *Router) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.stopped {
		return
	}
	r.started = true
	r.ep.SetHandler(r.dispatch)
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
	started := r.started && !r.stopped
	r.stopped = true
	r.mu.Unlock()
	if started {
		r.ep.SetHandler(nil)
	}
}
