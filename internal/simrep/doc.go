// Package simrep is the replicated-database performance simulator used to
// reproduce the evaluation of Sect. 6 of the paper (Fig. 9).  The paper's own
// numbers come from a discrete-event simulator (the authors' testbed is not
// available), so this package re-implements the same resource model on top of
// internal/sim: each server has two CPUs and two disks, the servers share a
// LAN, transactions are generated according to Table 4, and the three
// replication techniques Fig. 9 plots are expressed as flows over those
// resources.  Run refuses every other safety level: the engine, not the
// simulator, is where 0-safe, 2-safe and very-safe are measured.
//
// Protocol flows:
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
//
// Every broadcast pays its own dissemination and ordering round, and a server
// installs as many write sets at once as it has disks.  The forces a client
// waits for (none at group-safe, the delegate's one at the other two) are the
// engine's: TestResponseForcesMatchEngine counts both.
package simrep
