// Package fd implements a heartbeat-based eventually-perfect failure detector
// (class ◇P of Chandra & Toueg): every process periodically broadcasts
// heartbeats; a peer is suspected when no heartbeat has been received for a
// configurable timeout, and the suspicion is revoked when a heartbeat arrives
// again.
package fd

import (
	"sync"
	"time"

	"groupsafe/internal/gcs/transport"
)

// MsgHeartbeat is the message type used by the detector; route it to
// Detector.OnMessage.
const MsgHeartbeat = "fd.heartbeat"

// Event describes a suspicion change.
type Event struct {
	Peer      string
	Suspected bool
	At        time.Time
}

// Config tunes the failure detector.
type Config struct {
	// Interval between heartbeats (default 50 ms).
	Interval time.Duration
	// Timeout after which a silent peer is suspected (default 4 × Interval).
	Timeout time.Duration
}

func (c *Config) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 4 * c.Interval
	}
}

// Sender abstracts the outgoing half of an endpoint (satisfied by
// transport.Endpoint and gcs.Router).
type Sender interface {
	Send(to string, m transport.Message) error
}

// Detector monitors a fixed set of peers.
type Detector struct {
	self   string
	peers  []string
	sender Sender
	cfg    Config

	mu        sync.Mutex
	lastHeard map[string]time.Time
	suspected map[string]bool
	listeners []func(Event)
	stopped   chan struct{}
	started   bool
	wg        sync.WaitGroup
	now       func() time.Time
}

// New creates a detector for self monitoring peers (self is ignored if
// present in peers).
func New(self string, peers []string, sender Sender, cfg Config) *Detector {
	cfg.applyDefaults()
	d := &Detector{
		self:      self,
		sender:    sender,
		cfg:       cfg,
		lastHeard: make(map[string]time.Time),
		suspected: make(map[string]bool),
		stopped:   make(chan struct{}),
		now:       time.Now,
	}
	for _, p := range peers {
		if p == self {
			continue
		}
		d.peers = append(d.peers, p)
		d.lastHeard[p] = d.now()
	}
	return d
}

// OnEvent registers a callback invoked (from the detector's goroutine) when a
// peer becomes suspected or is rehabilitated.
func (d *Detector) OnEvent(fn func(Event)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.listeners = append(d.listeners, fn)
}

// Start launches the heartbeat and monitoring loops.
func (d *Detector) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	d.wg.Add(1)
	go d.loop()
}

// Stop terminates the detector.
func (d *Detector) Stop() {
	select {
	case <-d.stopped:
	default:
		close(d.stopped)
	}
	d.wg.Wait()
}

func (d *Detector) loop() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.cfg.Interval)
	defer ticker.Stop()
	d.beat()
	for {
		select {
		case <-d.stopped:
			return
		case <-ticker.C:
			d.beat()
			d.check()
		}
	}
}

func (d *Detector) beat() {
	for _, p := range d.peers {
		_ = d.sender.Send(p, transport.Message{Type: MsgHeartbeat})
	}
}

func (d *Detector) check() {
	now := d.now()
	var events []Event
	d.mu.Lock()
	for _, p := range d.peers {
		silent := now.Sub(d.lastHeard[p]) > d.cfg.Timeout
		if silent && !d.suspected[p] {
			d.suspected[p] = true
			events = append(events, Event{Peer: p, Suspected: true, At: now})
		}
	}
	listeners := append([]func(Event){}, d.listeners...)
	d.mu.Unlock()
	for _, ev := range events {
		for _, fn := range listeners {
			fn(ev)
		}
	}
}

// OnMessage feeds an inbound heartbeat into the detector (wire it to a router
// with prefix MsgHeartbeat).
func (d *Detector) OnMessage(m transport.Message) {
	if m.Type != MsgHeartbeat {
		return
	}
	now := d.now()
	var events []Event
	d.mu.Lock()
	d.lastHeard[m.From] = now
	if d.suspected[m.From] {
		d.suspected[m.From] = false
		events = append(events, Event{Peer: m.From, Suspected: false, At: now})
	}
	listeners := append([]func(Event){}, d.listeners...)
	d.mu.Unlock()
	for _, ev := range events {
		for _, fn := range listeners {
			fn(ev)
		}
	}
}

// Suspected reports whether peer is currently suspected.
func (d *Detector) Suspected(peer string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.suspected[peer]
}

// Alive returns the peers not currently suspected, plus self.
func (d *Detector) Alive() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	alive := []string{d.self}
	for _, p := range d.peers {
		if !d.suspected[p] {
			alive = append(alive, p)
		}
	}
	return alive
}

// SuspectedPeers returns the currently suspected peers.
func (d *Detector) SuspectedPeers() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for _, p := range d.peers {
		if d.suspected[p] {
			out = append(out, p)
		}
	}
	return out
}
