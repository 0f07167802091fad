package gsdb

import (
	"context"
	"sync"
)

// executor is the surface a Session rides on — satisfied by both the
// embedded Client and the network RemoteClient, so session semantics are
// identical in-process and across TCP (the freshness token and floor ride
// the wire protocol unchanged).
type executor interface {
	Execute(ctx context.Context, req Request, opts ...TxnOption) (Result, error)
}

// Session threads the freshness token automatically: every Execute carries
// the largest token observed by any previous call in the session as its
// MinFreshness floor, and merges the result's token back in.  The guarantees
// are the paper's session properties built from the total order: monotonic
// reads, and read-your-own-writes across replicas — a committed update's
// token is its position in the total order, so the next read waits (or is
// routed to a replica that already applied it, which the freshness-aware
// delegate picker prefers) before taking its snapshot.
//
//	s := client.NewSession()
//	s.Execute(ctx, gsdb.Request{Ops: []gsdb.Op{{Item: 1, Write: true, Value: 7}}})
//	res, _ := s.Execute(ctx, gsdb.Query(1)) // sees value 7, from any replica
//
// The token only ever grows, never resets — even across replica crashes and
// failovers the session keeps reading forward.  Additional options combine
// as usual; a WithFreshness floor applies where it is stronger than the
// session's.
// A Session is safe for concurrent use; concurrent calls may observe each
// other's tokens in any order, but each call's floor is at least the largest
// token merged before it started.
type Session struct {
	exec executor

	mu    sync.Mutex
	token uint64
}

// NewSession starts a session on the embedded client.
func (c *Client) NewSession() *Session { return &Session{exec: c} }

// NewSession starts a session on the network client.
func (c *RemoteClient) NewSession() *Session { return &Session{exec: c} }

// Execute runs one transaction with the session's freshness floor applied
// and merges the resulting token back into the session.  The session's floor
// goes last, so a weaker WithFreshness among opts cannot lower it.
func (s *Session) Execute(ctx context.Context, req Request, opts ...TxnOption) (Result, error) {
	token := s.Token()
	floored := append(opts[:len(opts):len(opts)], func(o *txnOptions) {
		o.freshness = max(o.freshness, token)
	})
	res, err := s.exec.Execute(ctx, req, floored...)
	if err == nil {
		s.merge(res.Freshness)
	}
	return res, err
}

// Token returns the session's current freshness token (the largest observed
// so far; 0 before the first successful call).
func (s *Session) Token() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.token
}

// merge folds a result's freshness token into the session; tokens are
// monotone, so merging keeps the maximum.
func (s *Session) merge(token uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if token > s.token {
		s.token = token
	}
}
