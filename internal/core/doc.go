// Package core implements the replicated database layer of the paper
// (Sects. 2, 4 and 5): one Replica per server, combining a local database
// component with a group communication component.
//
// A replica owns the client session (Execute), the group communication
// stack and its lifecycle (crash, state transfer, recovery), the ordered
// delivery drain loop, durability forcing and client notification.  Every
// replica runs the paper's own protocol, the certification-based database
// state machine: update transactions execute optimistically at their
// delegate, are atomically broadcast with their read versions and write set,
// and every replica certifies them in delivery order (first-updater-wins).
// SafetyLevel is the only replication setting; it parameterises the client
// response point: 0-safe, 1-safe (lazy), group-safe, group-1-safe, 2-safe,
// very-safe.  The two lazy levels are the paper's 1-safe baselines: the
// delegate commits locally and ships the write set asynchronously, with no
// broadcast and no certification.
//
// A Cluster wires one Replica per server onto a shared in-memory network
// with failure injection.  The replication pipeline is batched end to end:
// the atomic broadcast coalesces concurrent payloads into multi-payload DATA
// messages, and the apply loops drain delivered bursts, installing every
// write set of a batch with a single group-committed log force before any
// delegate is notified.  See
// docs/ARCHITECTURE.md for the layering diagram and BENCH.md for measured
// effects.
package core
