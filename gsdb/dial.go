package gsdb

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"groupsafe/internal/netproto"
)

// ServerInfo is the status report of one gsdb-server process: its identity,
// current membership view, replication progress and committed store
// fingerprint.  See RemoteClient.Info.
type ServerInfo = netproto.ServerInfo

// ItemState is one item's committed value and version inside a ServerInfo.
type ItemState = netproto.ItemState

// Dial connects to a cluster of gsdb-server processes and returns a network
// client.  Each address is one replica's client port.  The client speaks the
// compact binary protocol of internal/netproto over one multiplexed TCP
// connection per replica (established lazily), picks delegates round-robin,
// and degrades gracefully: a dead or crashed replica is skipped with jittered
// backoff, and a request fails — it never hangs — once
// its bounded retry budget or its context is exhausted.  An endpoint whose
// dial or handshake fails repeatedly is suspended from the round-robin for an
// exponentially growing window (100ms doubling to a 15s cap), so a dead
// server costs one probe per window instead of one timeout per transaction;
// any successful connection clears the suspension.
//
// The same per-transaction options work as with the embedded client; only
// Compute hooks are rejected (a Go closure cannot cross the network — fetch
// the reads and issue the writes in a second transaction, or keep such logic
// in-process).
func Dial(ctx context.Context, addrs ...string) (*RemoteClient, error) {
	if len(addrs) == 0 {
		return nil, errors.New("gsdb: dial: at least one server address is required")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("gsdb: dial: %w", err)
	}
	c := &RemoteClient{
		addrs:   append([]string(nil), addrs...),
		addrIdx: make(map[string]int, len(addrs)),
		advert:  make([]atomic.Uint64, len(addrs)),
		load:    make([]atomic.Int64, len(addrs)),
		conns:   make(map[string]*remoteConn),
		health:  make(map[string]endpointHealth),
		now:     time.Now,
	}
	for i, a := range addrs {
		c.addrIdx[a] = i
	}
	return c, nil
}

// RemoteClient is a client for a cluster of gsdb-server processes.  All
// methods are safe for concurrent use.
type RemoteClient struct {
	addrs   []string
	addrIdx map[string]int  // addr -> index in addrs (immutable after Dial)
	advert  []atomic.Uint64 // per-endpoint last advertised applied sequence
	load    []atomic.Int64  // per-endpoint in-flight requests
	closed  atomic.Bool
	rr      atomic.Uint64

	mu     sync.Mutex
	conns  map[string]*remoteConn
	health map[string]endpointHealth
	now    func() time.Time // injectable clock for the health tests
}

// endpointHealth is the rotation-skipping state of one server address: an
// endpoint whose dial or handshake keeps failing is suspended from the
// round-robin for an exponentially growing window (capped), so a dead server
// costs one probe per window instead of one timeout per transaction.  Any
// successful connection resets the state; an expired window means the next
// rotation pass probes the endpoint again (the decay path).
type endpointHealth struct {
	fails int       // consecutive connection/handshake failures
	until time.Time // suspended from rotation while now < until
}

// Close closes every server connection.  Calls after Close fail with
// ErrClosed.
func (c *RemoteClient) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.mu.Lock()
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()
	for _, rc := range conns {
		rc.close(ErrClosed)
	}
	return nil
}

// Addrs returns the configured server addresses.
func (c *RemoteClient) Addrs() []string { return append([]string(nil), c.addrs...) }

// retry tuning for the remote execution path.
const (
	remoteDialTimeout = 3 * time.Second
	remoteBackoffMin  = 25 * time.Millisecond
	remoteBackoffMax  = 1 * time.Second

	// Per-endpoint suspension windows after repeated connection/handshake
	// failures: 100ms after the first failure, doubling to a 15s cap.
	endpointSuspendMin = 100 * time.Millisecond
	endpointSuspendMax = 15 * time.Second
)

// noteEndpointFailure records one connection or handshake failure against
// addr and extends its suspension window exponentially.
func (c *RemoteClient) noteEndpointFailure(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.health[addr]
	h.fails++
	window := endpointSuspendMin << (h.fails - 1)
	if h.fails > 8 || window > endpointSuspendMax {
		window = endpointSuspendMax // also guards shift overflow
	}
	h.until = c.now().Add(window)
	c.health[addr] = h
}

// noteEndpointOK clears addr's failure history after a successful connection.
func (c *RemoteClient) noteEndpointOK(addr string) {
	c.mu.Lock()
	delete(c.health, addr)
	c.mu.Unlock()
}

// endpointSuspended reports whether addr is inside its suspension window.
func (c *RemoteClient) endpointSuspended(addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now().Before(c.health[addr].until)
}

// noteAdvert folds a freshness token observed from endpoint idx into its
// advertised applied sequence (monotone: stale observations are ignored).
// Every successful Execute and Info refreshes the advertisement, so the
// router learns each server's progress from traffic it pays for anyway.
func (c *RemoteClient) noteAdvert(idx int, seq uint64) {
	if idx < 0 || idx >= len(c.advert) {
		return
	}
	for {
		cur := c.advert[idx].Load()
		if seq <= cur || c.advert[idx].CompareAndSwap(cur, seq) {
			return
		}
	}
}

// routeSlot picks the rotation start for one transaction: the shared policy
// (route) over the endpoints that are not suspended, with an endpoint's lag
// the distance of its last advertised applied sequence below the call's
// freshness floor and its load the requests in flight to it.
// Advertisements lag reality (they come from previous results and Info
// calls), so the floor is only a routing hint — the serving replica
// re-checks it, and a wrong guess costs one rotation, never correctness.
func (c *RemoteClient) routeSlot(o *txnOptions) int {
	floor := o.freshness
	for _, f := range o.freshnessVec {
		if f > floor {
			floor = f
		}
	}
	n := len(c.addrs)
	return route(n, int(c.rr.Add(1)-1)%n,
		func(i int) bool { return c.endpointSuspended(c.addrs[i]) },
		func(i int) uint64 {
			if seq := c.advert[i].Load(); seq < floor {
				return floor - seq
			}
			return 0
		},
		func(i int) int64 { return c.load[i].Load() })
}

// pickAddr selects the delegate for one rotation slot, skipping forward past
// suspended endpoints.  When every endpoint is suspended the slot's own
// endpoint is probed anyway — total suspension must never starve the client,
// and the probe is what discovers recovery.
func (c *RemoteClient) pickAddr(slot int) string {
	addr := c.addrs[slot%len(c.addrs)]
	if !c.endpointSuspended(addr) {
		return addr
	}
	for off := 1; off < len(c.addrs); off++ {
		if cand := c.addrs[(slot+off)%len(c.addrs)]; !c.endpointSuspended(cand) {
			return cand
		}
	}
	return addr
}

// Execute runs one transaction against the cluster and blocks until its
// safety level's notification condition holds at the serving replica, or
// until the retry budget or ctx is exhausted.  Engine error sentinels
// (ErrCrashed, ErrSafetyUnavailable, ...) keep their
// errors.Is identity across the wire.
func (c *RemoteClient) Execute(ctx context.Context, req Request, opts ...TxnOption) (Result, error) {
	if c.closed.Load() {
		return Result{}, ErrClosed
	}
	o := newTxnOptions(opts)
	o.apply(&req)
	if req.Compute != nil {
		return Result{}, fmt.Errorf("%w: Compute hooks cannot cross the network", ErrComputeNotReplicable)
	}

	pinned := -1
	if o.delegate >= 0 {
		if o.delegate >= len(c.addrs) {
			return Result{}, fmt.Errorf("%w: replica index %d of %d servers", ErrNotFound, o.delegate, len(c.addrs))
		}
		pinned = o.delegate
	}
	start := c.routeSlot(&o)

	// Budget: every replica gets a few chances; a pinned delegate gets the
	// whole budget itself.  The budget bounds work, the context bounds time.
	budget := 3 * len(c.addrs)
	backoff := remoteBackoffMin
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		if c.closed.Load() {
			return Result{}, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return Result{}, c.exhausted(err, lastErr)
		}
		addr := c.pickAddr(start + attempt)
		if pinned >= 0 {
			addr = c.addrs[pinned] // a pinned delegate is never skipped
		}

		idx := c.addrIdx[addr]
		c.load[idx].Add(1)
		res, err := c.roundTrip(ctx, addr, netproto.Frame{Type: netproto.MsgExec, Payload: netproto.AppendRequest(nil, req)})
		c.load[idx].Add(-1)
		if err == nil {
			result, derr := netproto.DecodeResult(res.Payload)
			if derr != nil {
				return Result{}, fmt.Errorf("gsdb: server %s: %w", addr, derr)
			}
			c.noteAdvert(idx, result.Freshness)
			return result, nil
		}
		lastErr = fmt.Errorf("server %s: %w", addr, err)
		if !retryable(err) {
			return Result{}, fmt.Errorf("gsdb: %w", lastErr)
		}
		// Transport failures and crashed replicas: rotate (or, pinned,
		// re-try the same replica) after a jittered backoff.
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff)))
		if backoff *= 2; backoff > remoteBackoffMax {
			backoff = remoteBackoffMax
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return Result{}, c.exhausted(ctx.Err(), lastErr)
		}
	}
	return Result{}, c.exhausted(nil, lastErr)
}

// Info fetches the status of the server at addr (which must be one of the
// dialled addresses, or any reachable gsdb-server client port).
func (c *RemoteClient) Info(ctx context.Context, addr string) (ServerInfo, error) {
	if c.closed.Load() {
		return ServerInfo{}, ErrClosed
	}
	f, err := c.roundTrip(ctx, addr, netproto.Frame{Type: netproto.MsgInfo})
	if err != nil {
		return ServerInfo{}, fmt.Errorf("gsdb: info %s: %w", addr, err)
	}
	info, err := netproto.DecodeInfo(f.Payload)
	if err != nil {
		return ServerInfo{}, fmt.Errorf("gsdb: info %s: %w", addr, err)
	}
	if idx, ok := c.addrIdx[addr]; ok {
		c.noteAdvert(idx, info.LastAppliedSeq)
	}
	return info, nil
}

// retryable reports whether a failed attempt should be retried elsewhere (or,
// for a pinned delegate, retried at all).
func retryable(err error) bool {
	var re *netproto.RemoteError
	if errors.As(err, &re) {
		// The server answered: only "this replica cannot serve you right
		// now" is worth retrying — a crashed replica may recover.
		return errors.Is(err, ErrCrashed)
	}
	// No protocol answer: connection-level failure, worth another replica.
	return true
}

// exhausted shapes the terminal error of a retry loop.
func (c *RemoteClient) exhausted(ctxErr, lastErr error) error {
	switch {
	case ctxErr != nil && lastErr != nil:
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			return fmt.Errorf("gsdb: %w (%w); last attempt: %w", ErrTimeout, ctxErr, lastErr)
		}
		return fmt.Errorf("gsdb: %w; last attempt: %w", ctxErr, lastErr)
	case ctxErr != nil:
		if errors.Is(ctxErr, context.DeadlineExceeded) {
			return fmt.Errorf("gsdb: %w (%w)", ErrTimeout, ctxErr)
		}
		return fmt.Errorf("gsdb: %w", ctxErr)
	case lastErr != nil:
		return fmt.Errorf("gsdb: retry budget exhausted: %w", lastErr)
	default:
		return errors.New("gsdb: retry budget exhausted")
	}
}

// roundTrip sends one frame to addr and waits for its response, dialling or
// re-dialling the connection as needed.  Server-reported errors come back as
// *netproto.RemoteError; transport failures as plain errors.
func (c *RemoteClient) roundTrip(ctx context.Context, addr string, f netproto.Frame) (netproto.Frame, error) {
	rc, err := c.conn(ctx, addr)
	if err != nil {
		return netproto.Frame{}, err
	}
	resp, err := rc.call(ctx, f)
	if err != nil {
		c.drop(addr, rc)
		return netproto.Frame{}, err
	}
	if resp.Type == netproto.MsgError {
		return netproto.Frame{}, netproto.DecodeError(resp.Payload)
	}
	return resp, nil
}

// conn returns the live connection to addr, dialling one if needed.
func (c *RemoteClient) conn(ctx context.Context, addr string) (*remoteConn, error) {
	c.mu.Lock()
	if c.conns == nil {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if rc := c.conns[addr]; rc != nil && !rc.isDead() {
		c.mu.Unlock()
		return rc, nil
	}
	c.mu.Unlock()

	dctx, cancel := context.WithTimeout(ctx, remoteDialTimeout)
	defer cancel()
	var d net.Dialer
	nc, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		c.noteEndpointFailure(addr)
		return nil, err
	}
	if err := netproto.WriteHandshake(nc); err != nil {
		nc.Close()
		c.noteEndpointFailure(addr)
		return nil, err
	}
	br := bufio.NewReader(nc)
	nc.SetReadDeadline(time.Now().Add(remoteDialTimeout))
	if err := netproto.ReadHandshake(br); err != nil {
		nc.Close()
		c.noteEndpointFailure(addr)
		return nil, err
	}
	nc.SetReadDeadline(time.Time{})
	c.noteEndpointOK(addr)

	rc := &remoteConn{
		conn:    nc,
		br:      br,
		pending: make(map[uint64]chan netproto.Frame),
		dead:    make(chan struct{}),
	}
	go rc.readLoop()

	c.mu.Lock()
	if c.conns == nil {
		c.mu.Unlock()
		rc.close(ErrClosed)
		return nil, ErrClosed
	}
	if old := c.conns[addr]; old != nil && !old.isDead() {
		// Another goroutine won the dial race; use its connection.
		c.mu.Unlock()
		rc.close(errors.New("gsdb: duplicate connection"))
		return old, nil
	}
	c.conns[addr] = rc
	c.mu.Unlock()
	return rc, nil
}

// drop discards a failed connection so the next attempt re-dials.
func (c *RemoteClient) drop(addr string, rc *remoteConn) {
	rc.close(errors.New("gsdb: connection dropped"))
	c.mu.Lock()
	if c.conns != nil && c.conns[addr] == rc {
		delete(c.conns, addr)
	}
	c.mu.Unlock()
}

// remoteConn is one multiplexed protocol connection: concurrent calls are
// matched to responses by correlation ID, so slow transactions (a 2-safe
// commit forcing disks everywhere) never head-of-line-block fast local
// queries sharing the connection.
type remoteConn struct {
	conn net.Conn
	br   *bufio.Reader

	mu       sync.Mutex // guards writes, pending, corr, err
	corr     uint64
	pending  map[uint64]chan netproto.Frame
	err      error
	deadOnce sync.Once
	dead     chan struct{}
}

func (rc *remoteConn) isDead() bool {
	select {
	case <-rc.dead:
		return true
	default:
		return false
	}
}

// call sends one frame and waits for the matching response.
func (rc *remoteConn) call(ctx context.Context, f netproto.Frame) (netproto.Frame, error) {
	ch := make(chan netproto.Frame, 1)
	rc.mu.Lock()
	if rc.err != nil {
		err := rc.err
		rc.mu.Unlock()
		return netproto.Frame{}, err
	}
	rc.corr++
	f.CorrID = rc.corr
	rc.pending[f.CorrID] = ch
	err := netproto.WriteFrame(rc.conn, f)
	rc.mu.Unlock()
	if err != nil {
		rc.forget(f.CorrID)
		return netproto.Frame{}, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-rc.dead:
		rc.mu.Lock()
		err := rc.err
		rc.mu.Unlock()
		return netproto.Frame{}, err
	case <-ctx.Done():
		rc.forget(f.CorrID)
		return netproto.Frame{}, ctx.Err()
	}
}

func (rc *remoteConn) forget(corr uint64) {
	rc.mu.Lock()
	delete(rc.pending, corr)
	rc.mu.Unlock()
}

// readLoop dispatches inbound frames to their waiting calls until the
// connection fails.
func (rc *remoteConn) readLoop() {
	for {
		f, err := netproto.ReadFrame(rc.br)
		if err != nil {
			rc.close(fmt.Errorf("gsdb: connection lost: %w", err))
			return
		}
		rc.mu.Lock()
		ch := rc.pending[f.CorrID]
		delete(rc.pending, f.CorrID)
		rc.mu.Unlock()
		if ch != nil {
			ch <- f
		}
	}
}

// close fails the connection: every in-flight and future call gets err.
func (rc *remoteConn) close(err error) {
	rc.deadOnce.Do(func() {
		rc.mu.Lock()
		rc.err = err
		rc.pending = make(map[uint64]chan netproto.Frame)
		rc.mu.Unlock()
		rc.conn.Close()
		close(rc.dead)
	})
}
