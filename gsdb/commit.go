package gsdb

import (
	"context"
	"fmt"
)

// Commit is the asynchronous handle returned by Client.Submit.  It separates
// the two moments the paper distinguishes for every safety level:
//
//   - Responded resolves at the transaction's RESPONSE point — the moment a
//     synchronous Execute would have returned (group-safe delivery, the
//     delegate's forced log for group-1-safe, every server's acknowledgement
//     for very-safe, ...);
//   - Durable resolves once the transaction's commit record is forced to the
//     delegate's local stable storage, forcing it on demand when the level
//     left durability asynchronous.
//
// For the force-on-commit levels (group-1-safe, 2-safe, very-safe) Durable
// resolves immediately after Responded; for group-safe the gap between the
// two IS the paper's response-vs-durability window.  Durable never resolves
// before Responded.
type Commit struct {
	client *Client
	done   chan struct{}
	res    Result
	err    error
}

// Responded blocks until the transaction's response point (or ctx expiry)
// and returns the result a synchronous Execute would have returned.  It may
// be called any number of times, concurrently.
func (cm *Commit) Responded(ctx context.Context) (Result, error) {
	select {
	case <-cm.done:
		return cm.res, cm.err
	case <-ctx.Done():
		return Result{}, fmt.Errorf("gsdb: waiting for the response point: %w", ctx.Err())
	}
}

// Durable blocks until the transaction's commit record is durable in the
// delegate's local log, forcing the log on demand.  It returns ErrAborted
// when the transaction did not commit, the submission error when the
// transaction failed outright, and nil for read-only transactions (which
// log nothing).  Durable never resolves before Responded.
func (cm *Commit) Durable(ctx context.Context) error {
	res, err := cm.Responded(ctx)
	if err != nil {
		return err
	}
	if !res.Committed() {
		return fmt.Errorf("%w: txn %d", ErrAborted, res.TxnID)
	}
	if res.CommitLSN == 0 {
		return nil // read-only: nothing was logged
	}
	r := cm.client.cluster.ReplicaByID(res.Delegate)
	if r == nil {
		return fmt.Errorf("%w: delegate %s", ErrNotFound, res.Delegate)
	}
	return r.WaitDurable(ctx, res.CommitLSN)
}
