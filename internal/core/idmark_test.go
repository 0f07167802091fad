package core

import (
	"errors"
	"sync"
	"testing"

	"groupsafe/internal/gcs/transport"
	"groupsafe/internal/wal"
)

var errDiskGone = errors.New("disk gone")

// failingSyncLog is an in-memory log whose every force fails.
type failingSyncLog struct{ *wal.MemLog }

func (failingSyncLog) Sync() error { return errDiskGone }

// TestIDMarkForceFailureFailsTheStart: a life may issue no transaction id
// before its id mark is durable, so a log that cannot be forced fails
// NewReplica, and nothing of the life reaches the durable log.
func TestIDMarkForceFailureFailsTheStart(t *testing.T) {
	log := failingSyncLog{wal.NewMemLog()}
	r, err := NewReplica(ReplicaConfig{
		ID: "s1", Members: []string{"s1", "s2", "s3"}, Level: GroupSafe,
		Network: transport.NewMemNetwork(), DBLog: log,
	})
	if !errors.Is(err, errDiskGone) || r != nil {
		t.Fatalf("NewReplica over a log that cannot be forced: %v, %v; want the force error", r, err)
	}
	if n := log.DurableLen(); n != 0 {
		t.Fatalf("the failed start left %d durable records", n)
	}
}

// idMarks returns the id marks in l's durable prefix, in log order.
func idMarks(t *testing.T, l *wal.MemLog) (marks []uint64) {
	t.Helper()
	if err := l.Replay(func(r wal.Record) error {
		if r.Kind == wal.KindIDMark {
			marks = append(marks, r.TxnID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return marks
}

// TestIDMarkOneForcePerBlock: concurrent draws of three blocks of ids get
// distinct ids, never a counter above the durable mark, at the cost of one
// force per block; the next life counts on from the largest mark.
func TestIDMarkOneForcePerBlock(t *testing.T) {
	c := newTestCluster(t, GroupSafe, 3)
	r, log := c.Replica(0), replicaLog(c, 0)
	if got := idMarks(t, log); len(got) != 1 || got[0] != idBlock {
		t.Fatalf("a first life's durable id marks: %v, want [%d]", got, idBlock)
	}
	startSyncs := log.Syncs()

	const workers, draws = 4, 3 * idBlock / 4
	ids := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range draws {
				id, err := r.nextTxnID()
				if err != nil {
					t.Error(err)
					return
				}
				ids[w] = append(ids[w], id)
			}
		}()
	}
	wg.Wait()
	marks := idMarks(t, log)
	seen := make(map[uint64]bool)
	for _, w := range ids {
		for _, id := range w {
			if seen[id] || id&(1<<40-1) > marks[len(marks)-1] {
				t.Fatalf("id %#x repeated or above the durable marks %v", id, marks)
			}
			seen[id] = true
		}
	}
	if got := log.Syncs() - startSyncs; got != 3 || len(marks) != 4 || marks[3] != 4*idBlock {
		t.Fatalf("3 blocks of ids took %d forces and left the marks %v, want 3 forces up to %d", got, marks, 4*idBlock)
	}

	c.Crash(0)
	if _, err := c.Recover(0); err != nil {
		t.Fatal(err)
	}
	id, err := c.Replica(0).nextTxnID()
	if err != nil || id != 1<<40|(4*idBlock+1) {
		t.Fatalf("the next life's first id: %#x, %v; want %#x", id, err, 1<<40|(4*idBlock+1))
	}
}
