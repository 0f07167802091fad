package wal

import "sync"

// GroupCommitter batches concurrent durability requests into a smaller number
// of Sync calls (group commit).  Group-safe replication moves the disk force
// out of the transaction response path entirely; group commit is the
// complementary optimisation for the levels that keep it (1-safe,
// group-1-safe, 2-safe): many transactions share one force.
type GroupCommitter struct {
	log Log

	mu        sync.Mutex
	cond      *sync.Cond
	syncedLSN LSN
	syncing   bool
	err       error
}

// NewGroupCommitter wraps the given log.
func NewGroupCommitter(log Log) *GroupCommitter {
	g := &GroupCommitter{log: log}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// WaitDurable blocks until every record with an LSN <= lsn is durable.  It
// triggers at most one Sync at a time; callers arriving while a Sync is in
// flight piggyback on the next one.
func (g *GroupCommitter) WaitDurable(lsn LSN) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.syncedLSN < lsn {
		if g.err != nil {
			return g.err
		}
		if g.syncing {
			g.cond.Wait()
			continue
		}
		// Become the leader of this group commit.
		g.syncing = true
		target := g.log.LastLSN()
		g.mu.Unlock()
		err := g.log.Sync()
		g.mu.Lock()
		g.syncing = false
		if err != nil {
			g.err = err
			g.cond.Broadcast()
			return err
		}
		if target > g.syncedLSN {
			g.syncedLSN = target
		}
		g.cond.Broadcast()
	}
	return g.err
}

// SyncedLSN returns the highest LSN known to be durable.
func (g *GroupCommitter) SyncedLSN() LSN {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.syncedLSN
}
