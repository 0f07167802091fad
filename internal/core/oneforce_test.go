package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"groupsafe/internal/wal"
)

// endToEndCases are the configurations that run the end-to-end broadcast:
// both broadcast-based techniques at both levels that require it.
func endToEndCases() (cases []ClusterConfig) {
	for _, tech := range []TechniqueID{TechCertification, TechActive} {
		for _, level := range []SafetyLevel{Safety2, VerySafe} {
			cases = append(cases, ClusterConfig{Replicas: 3, Items: 64, Technique: tech, Level: level, ExecTimeout: 5 * time.Second})
		}
	}
	return cases
}

func replicaLog(c *Cluster, i int) *wal.MemLog { return c.Replica(i).DB().Log().(*wal.MemLog) }

// durableKinds counts, per record kind, the records of l that a crash at this
// instant would preserve and that carry the given TxnID.
func durableKinds(t *testing.T, l *wal.MemLog, txnID uint64) map[wal.Kind]int {
	t.Helper()
	kinds := make(map[wal.Kind]int)
	if err := l.Replay(func(r wal.Record) error {
		if r.TxnID == txnID {
			kinds[r.Kind]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kinds
}

// TestEndToEndLevelsForceOncePerBatch pins the one-log, one-force design: a
// replica has a single log, which holds the broadcast's message records next
// to the database's, every applied batch forces it exactly once, and when a
// transaction is externalised its message and commit records are durable.
// Transactions run one at a time and are awaited everywhere, so each is a
// batch of its own at every replica.
func TestEndToEndLevelsForceOncePerBatch(t *testing.T) {
	for _, cfg := range endToEndCases() {
		t.Run(fmt.Sprintf("%v/%v", cfg.Technique, cfg.Level), func(t *testing.T) {
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			const txns = 5
			for n := uint64(1); n <= txns; n++ {
				res, err := c.Execute(context.Background(), int(n)%c.Size(), writeReq(0, int(n), int64(n)))
				if err != nil || !res.Committed() {
					t.Fatalf("txn %d: %+v, %v", n, res, err)
				}
				for i, r := range c.Replicas() {
					// The applied sequence advances in externalize, after the force.
					for deadline := time.Now().Add(5 * time.Second); r.LastAppliedSeq() < res.Freshness; {
						if time.Now().After(deadline) {
							t.Fatalf("replica %d never applied sequence %d", i, res.Freshness)
						}
						time.Sleep(time.Millisecond)
					}
					log := replicaLog(c, i)
					if got := log.Syncs(); got != n {
						t.Fatalf("replica %d forced its log %d times for %d single-transaction batches", i, got, n)
					}
					if k := durableKinds(t, log, res.Freshness); k[wal.KindMessage] != 1 {
						t.Fatalf("replica %d externalised sequence %d with %d durable message records in its log", i, res.Freshness, k[wal.KindMessage])
					}
					if k := durableKinds(t, log, res.TxnID); k[wal.KindCommit] != 1 {
						t.Fatalf("replica %d externalised txn %#x with %d durable commit records", i, res.TxnID, k[wal.KindCommit])
					}
				}
			}
		})
	}
}

// TestCrashBetweenMessageAppendAndBatchForce injects the delegate's crash in
// the window the single force leaves open — the broadcast has logged the
// message and handed it over, the batch force has not run.  Nothing may have
// been externalised: no response, no very-safe acknowledgement, no end-to-end
// ack.  What recovery finds is consistent either way: when the log write never
// reached the disk, neither the message nor the transaction exists locally
// (the replica catches up from its peers like any that missed a delivery);
// when it did (forced), the unacknowledged message is replayed and the
// transaction applied exactly once.
func TestCrashBetweenMessageAppendAndBatchForce(t *testing.T) {
	for _, cfg := range endToEndCases() {
		for _, forced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/%v/forced=%v", cfg.Technique, cfg.Level, forced), func(t *testing.T) {
				c, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				// The delegate is not the sequencer (the first member), so the
				// other two keep ordering and delivering without a takeover.
				victim, log := c.Replica(1), replicaLog(c, 1)
				victim.SetDeliverHook(func(uint64) {
					if log.Len() == 0 {
						t.Error("the deliver hook ran before the message was logged")
					}
					if forced {
						_ = log.Sync() // an in-memory log's force cannot fail
					}
					victim.Crash()
				})
				req := writeReq(victim.nextTxnID(), 7, 77)
				if res, err := victim.Execute(context.Background(), req); !errors.Is(err, ErrCrashed) {
					t.Fatalf("the delegate crashed before its batch force, yet Execute returned %+v, %v", res, err)
				}
				if got := victim.Stats(); got.AcksSent != 0 || got.Delivered != 0 {
					t.Fatalf("the crashed delegate externalised something: %+v", got)
				}
				wantSyncs, wantMessages := uint64(0), 0
				if forced {
					wantSyncs, wantMessages = 1, 1
				}
				if got := log.Syncs(); got != wantSyncs {
					t.Fatalf("the log was forced %d times, want %d", got, wantSyncs)
				}
				// The message is the cluster's first: sequence number 1.
				if k := durableKinds(t, log, 1); k[wal.KindMessage] != wantMessages || k[wal.KindAck] != 0 {
					t.Fatalf("durable records of sequence 1: %v, want %d message record(s) and no ack", k, wantMessages)
				}
				if k := durableKinds(t, log, req.ID); len(k) != 0 {
					t.Fatalf("durable database records of the unforced transaction: %v", k)
				}

				// Recover once the peers hold the transaction, so that the
				// state transfer carries it.
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					v0, _ := c.Value(0, 7)
					v2, _ := c.Value(2, 7)
					if v0 == 77 && v2 == 77 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("the surviving replicas never committed the transaction")
					}
				}
				replayed, err := c.Recover(1)
				if err != nil || replayed != wantMessages {
					t.Fatalf("Recover replayed %d messages (%v), want %d", replayed, err, wantMessages)
				}
				if !waitConsistent(c, 5*time.Second) {
					t.Fatal("replicas did not converge after the recovery")
				}
				if v, err := c.Value(1, 7); err != nil || v != 77 {
					t.Fatalf("recovered delegate reads %d, %v; its peers committed the transaction", v, err)
				}
				if forced {
					// The replay runs behind the state transfer, which already
					// carries the transaction: it must be skipped, then acked.
					for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
						log.Sync()
						if durableKinds(t, log, 1)[wal.KindAck] == 1 {
							break
						}
						if time.Now().After(deadline) {
							t.Fatal("the replayed message was never acknowledged")
						}
					}
					if _, ver, _ := c.Replica(1).DB().ReadVersioned(7); ver != 1 {
						t.Fatalf("item 7 is at version %d after the replay, want 1 (applied exactly once)", ver)
					}
				}
			})
		}
	}
}
