// Package tuning holds the pipeline tuning knobs shared by the layers of the
// stack: abcast.Config, core.ReplicaConfig, core.ClusterConfig and the
// experiment configurations each embed one of the structs below, so a knob is
// documented once and promoted field access (cfg.ApplyWorkers) works
// everywhere.  The ordered-update lane itself has no knobs: delivery-clocked
// batching, the backlog-pipelined sequencer and coalesced ACKs are the only
// behaviour (see internal/gcs/abcast).
package tuning

import "time"

// Sequencer tunes the ordering role of the atomic broadcast.
type Sequencer struct {
	// RotateEvery, when > 0, rotates the sequencer role to the next member
	// after that many sequence assignments: a planned, gather-free epoch
	// handoff so ordering load is not pinned to one member.  0 keeps the
	// fixed sequencer.
	RotateEvery int
	// OrderDelay emulates the ordering site's per-payload service cost: the
	// sequencer spends OrderDelay per message it assigns a sequence number
	// to, serialised with every other assignment.  Zero (the default)
	// disables the emulation.  It is the ordering-path sibling of the
	// replica's DiskSyncDelay: where DiskSyncDelay gives the simulated
	// cluster a disk whose forces cost something, OrderDelay gives it a
	// sequencer whose total order costs something — the serial resource a
	// partitioned deployment splits into independent per-partition orders.
	OrderDelay time.Duration
}

// Pipeline is the replica-pipeline knob set: the sequencer role and the
// parallel apply stage.
type Pipeline struct {
	Sequencer
	// ApplyWorkers bounds how many certified write sets of one drained batch
	// are installed concurrently.  Certification always stays serial in
	// delivery order; with ApplyWorkers > 1 the committed write sets are
	// partitioned by their item-conflict graph and independent write sets
	// install in parallel, conflicting ones chained in delivery order —
	// observationally identical to serial apply.  <= 1 keeps the serial
	// apply loop.
	ApplyWorkers int
}
