// Package transport provides the message transports used by the group
// communication component: an in-memory network with failure injection
// (latency, loss, partitions, crashes) for tests and simulated clusters, and
// a TCP transport for real deployments.
package transport

import "errors"

// Message is a point-to-point message between group communication endpoints.
// Type is used by the router to dispatch messages to protocol handlers;
// Payload is an opaque, protocol-defined encoding.
type Message struct {
	From    string
	To      string
	Type    string
	Payload []byte
}

// Endpoint is one node's attachment to a network.
type Endpoint interface {
	// Addr returns the endpoint's stable address.
	Addr() string
	// Send transmits a message to the endpoint with address to.  Sending is
	// best-effort: a dropped, partitioned or crashed destination is not an
	// error (the failure detector and protocol time-outs handle it).
	Send(to string, m Message) error
	// Recv returns the channel of inbound messages that arrive while no
	// handler is set.
	Recv() <-chan Message
	// SetHandler makes the endpoint call h for every inbound message instead
	// of queueing it for Recv: on the goroutine of the link it arrived on, so
	// in order for each sender and concurrently across senders.  nil goes
	// back to Recv.  SetHandler returns once every call of the previous
	// handler has, so a handler must not call it.
	SetHandler(h func(Message))
	// Close detaches the endpoint from the network.
	Close() error
}

// ErrClosed is returned when sending through a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// Network abstracts how a replica attaches to its peers, so the same replica
// engine runs over the in-memory failure-injection network (tests, simulated
// clusters, the fuzzer) and over real TCP sockets (one process per replica;
// see TCPNode).  Crash and Recover exist for the simulated crash model; for
// a real process the operating system plays that role (kill -9 the process),
// so TCPNode implements them as endpoint teardown/no-op.
type Network interface {
	// Endpoint attaches (or re-attaches) the endpoint with the given
	// address.
	Endpoint(addr string) Endpoint
	// Crash silences the endpoint at addr (simulated process crash).
	Crash(addr string)
	// Recover reverses a Crash.
	Recover(addr string)
}
