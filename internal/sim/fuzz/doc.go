// Package fuzz is a deterministic fault-injection scenario fuzzer for the
// replicated database engine (internal/core).
//
// A single 64-bit seed deterministically expands into a complete scenario:
// the cluster shape (replica count, safety level), a
// mixed read/write workload split over client sessions with per-session
// freshness floors, and an adversary schedule of network partitions and
// heals, message delay/loss within the transport's FIFO-per-channel
// contract, one-way link blocks, crash-recover storms and replica churn.
// The scenario — not the execution — is the unit of determinism: the same
// seed always yields the byte-identical trace (Scenario.Marshal), and the
// invariant suite is written to hold for EVERY goroutine interleaving of a
// scenario, so a replayed trace re-checks the same claims even though the
// wall-clock interleaving differs.
//
// After a run the invariant suite (invariants.go) checks the paper's
// correctness claims mechanically:
//
//   - one-copy serializability of the committed history, by replaying the
//     write sets in the total order recorded by a never-crashed replica and
//     comparing values and versions against its final store;
//   - no committed-and-acknowledged transaction lost at its safety level:
//     2-safe/very-safe survive any number of crashes, the group-safe levels
//     may lose a responded transaction only when every replica that applied
//     it crashed afterwards (exactly the paper's boundary), the lazy levels
//     only when the delegate crashed;
//   - freshness-token sanity per session: floored queries never answer below
//     their floor, tokens of a session's updates are monotone, and every
//     value read under a floor appears in the item's committed timeline at
//     or after the token;
//   - session routing: the tokens served to one session's floored queries
//     never move backwards, even as the freshness-aware router moves the
//     session between replicas across crashes and recoveries (the
//     "readheavy" profile — query-dominated, floors almost always on, under
//     crash/recover churn — is built to hammer exactly this claim);
//   - post-heal convergence: after the rescue phase every live replica holds
//     identical state (WaitConsistent) at every group-communication level
//     (the update-everywhere lazy levels may legally diverge).
//
// The "sharded" profile runs the same schedules against a PARTITIONED
// keyspace (internal/partition: 2-4 hash partitions, each its own replica
// group and total order, crashes hitting every co-located partition replica
// at once) and adds the partitioned claims:
//
//   - atomic commitment of cross-partition transactions: a transaction
//     writing several partitions installs at all of them or at none; an
//     acknowledged abort installs nowhere, unconditionally, and a partial
//     install is excused only in the group-safe window (every server that
//     externalised the commit on the missing partition crashed) — a
//     coordinator killed mid-2PC must never yield a partial install at
//     2-safe or above;
//   - per-partition one-copy serializability: each partition's committed
//     history (2PC installs at their decide positions) replays to the
//     reference server's per-partition store;
//   - vector freshness floors: a query carrying per-partition floors is
//     served at or above the floor entry of every partition it read from
//     (scalar token monotonicity is not asserted — the partitions' orders
//     are independent sequences).
//
// On a violation the greedy shrinker (shrink.go) minimises the adversary
// schedule while the violation reproduces, and the result is written as a
// replayable seed+trace file.  Committed traces under corpus/ replay as
// ordinary `go test` regression cases (corpus.go).
//
// The mutation self-test (mutation_test.go, build tag simmutation) proves
// the harness has teeth: built with -tags simmutation the engine skips the
// 2-safe commit force, and the test asserts the fuzzer catches the lost
// acknowledged transaction within a bounded seed sweep.
package fuzz
