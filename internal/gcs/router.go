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
// handlers registered by message-type prefix.  Several protocols (failure
// detector, atomic broadcast, state transfer, replication control traffic) share
// one endpoint per node.
type Router struct {
	ep transport.Endpoint

	// table is the immutable routing snapshot the dispatch loop reads without
	// a lock, once per inbound message; Handle swaps in a new one under mu.
	table   atomic.Pointer[routes]
	mu      sync.Mutex
	stopped chan struct{}
	done    chan struct{}
	started bool
}

// routes is one routing snapshot, handlers by message-type prefix; it is
// never modified once published.
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

// Handle registers a handler for all messages whose Type starts with prefix.
// The longest matching prefix wins.
func (r *Router) Handle(prefix string, h Handler) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := maps.Clone(*r.table.Load())
	next[prefix] = h
	r.table.Store(&next)
}

// Send transmits a message through the underlying endpoint.
func (r *Router) Send(to string, m transport.Message) error {
	return r.ep.Send(to, m)
}

// Start launches the dispatch loop.
func (r *Router) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
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
	var best Handler
	bestLen := -1
	for prefix, h := range *r.table.Load() {
		if strings.HasPrefix(m.Type, prefix) && len(prefix) > bestLen {
			best = h
			bestLen = len(prefix)
		}
	}
	if best != nil {
		best(m)
	}
}

// Stop terminates the dispatch loop.  It does not close the endpoint.
func (r *Router) Stop() {
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	select {
	case <-r.stopped:
		return
	default:
		close(r.stopped)
	}
	if started {
		<-r.done
	}
}
