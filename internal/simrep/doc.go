// Package simrep is the replicated-database performance simulator used to
// reproduce the evaluation of Sect. 6 of the paper (Fig. 9).  The paper's own
// numbers come from a discrete-event simulator (the authors' testbed is not
// available), so this package re-implements the same resource model on top of
// internal/sim: each server has two CPUs and two disks, the servers share a
// LAN, transactions are generated according to Table 4, and the three
// replication techniques (lazy / 1-safe, group-safe, group-1-safe — plus the
// 2-safe, very-safe and 0-safe extensions) are expressed as flows over those
// resources.
//
// Protocol flows (documented substitutions are listed in DESIGN.md):
//
//   - lazy (1-safe): the delegate executes reads and writes against its local
//     buffer (a disk access per buffer miss), forces its log, answers the
//     client, and only then propagates the write set to the other servers,
//     which install it asynchronously.
//   - group-1-safe (Fig. 2): the delegate executes reads and writes, atomic-
//     broadcasts the transaction, every server certifies and installs the
//     writes in delivery order, and the delegate answers the client only after
//     its own commit record is forced to disk.
//   - group-safe (Fig. 8): the delegate executes only the reads before the
//     broadcast; the client is answered as soon as the delivery order and the
//     certification outcome are known; writes and log forces happen
//     asynchronously, after the response.
//   - 2-safe: group-1-safe plus a forced write of the message to the group
//     communication log at the delegate before the response (end-to-end
//     atomic broadcast).
//   - very-safe: the response additionally waits until every server has
//     installed and forced the transaction.
//   - 0-safe: lazy without the log force in the response path.
//
// With Config.BatchSize > 1 the group-communication flows run through a
// batched broadcast stage: transactions queue at their delegate's sender,
// and everything that arrives while the previous round is in flight (up to
// BatchSize) shares a single dissemination round and a single ordering round
// on the LAN — the simulator counterpart of the delivery-clocked lane in
// internal/gcs/abcast.
package simrep
