package fuzz

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/partition"
	"groupsafe/internal/sim"
	"groupsafe/internal/storage"
)

// The runner executes a scenario against a real cluster.  The schedule is
// deterministic; the execution is not (real goroutines, real timers), so
// everything the runner records is designed to support invariants that hold
// for EVERY interleaving: a global event counter orders client
// acknowledgements against injected faults, the durable frontier is sampled
// just before each crash, and total failures (no live replica) are marked
// because they are the one point where the broadcast sequence may restart.

// TxnRec is the runner's record of one submitted transaction.
type TxnRec struct {
	// Session and StepIdx locate the originating schedule step.
	Session int
	StepIdx int
	// TxnID is the pre-assigned transaction identifier.
	TxnID uint64
	// Delegate is the replica index the request was submitted to.
	Delegate int
	// Query marks read-only requests.
	Query bool
	// Floor is the MinFreshness actually sent (0: none).
	Floor uint64
	// FloorVec is the per-partition freshness floor actually sent (nil:
	// none; partitioned runs use vector floors instead of the scalar).
	FloorVec []uint64
	// Writes is the transaction's effective write set (last write per item
	// wins, matching the certification write set).  Empty for queries and
	// read-only updates.
	Writes map[int]int64
	// Acked is true when Execute returned a Result (the client was answered).
	Acked bool
	// Err is the submission error when Acked is false.
	Err error
	// The remaining fields copy the Result of an acked transaction.
	Outcome    core.Outcome
	Level      core.SafetyLevel
	DelegateID string
	Freshness  uint64
	// FreshnessVec is the per-partition freshness vector of the result
	// (partitioned runs only; global item keys in ReadValues).
	FreshnessVec []uint64
	ReadValues   map[int]int64
	// SubmitIdx and AckIdx are global event-counter stamps taken immediately
	// before submission and after the response.
	SubmitIdx uint64
	AckIdx    uint64
}

// Committed reports whether the transaction was acknowledged as committed.
func (t *TxnRec) Committed() bool { return t.Acked && t.Outcome == core.OutcomeCommitted }

// Update reports whether the transaction carries writes.
func (t *TxnRec) Update() bool { return len(t.Writes) > 0 }

// CrashEvent records one injected crash.
type CrashEvent struct {
	// Replica is the crashed replica's index.
	Replica int
	// Idx is the global event-counter stamp (taken after the crash landed).
	Idx uint64
	// DurableLSN is the durable frontier of the replica's log sampled just
	// before the crash: everything at or below it survives.
	DurableLSN uint64
	// TotalFailure is true when this crash took the last live replica down.
	TotalFailure bool
}

// RunRecord is everything the invariant suite needs about one finished run.
type RunRecord struct {
	Scenario *Scenario
	Level    core.SafetyLevel
	// Partitions is the keyspace partition count (1: unpartitioned) and PMap
	// the item→partition map the router used.
	Partitions int
	PMap       partition.Map

	// Sessions holds the per-session transaction records in submission order.
	Sessions [][]*TxnRec
	// TxnByID indexes every submitted transaction.
	TxnByID map[uint64]*TxnRec
	// Crashes lists the injected crashes in injection order (rescue-phase
	// crashes included: they can lose state like any other).
	Crashes []CrashEvent
	// TotalFailures holds the event stamps of the crashes that left no live
	// replica; between two stamps the broadcast sequence is comparable.
	TotalFailures []uint64
	// EverCrashed[i] is true when replica i crashed at least once.
	EverCrashed []bool

	// Converged reports whether the final WaitConsistent succeeded;
	// ConvergeErr carries the divergence detail when it did not.
	Converged   bool
	ConvergeErr error

	// RefReplica is the index of a server that never crashed (-1 when the
	// run had none): its AppliedLog (RefLog) is a complete record of the
	// delivered total order, the reference for the one-copy replay.  RefLog
	// is only set for unpartitioned runs; partitioned runs keep the
	// reference server's per-partition logs in RefLogs (one independent
	// total order each — there is no single comparable sequence).
	RefReplica int
	RefLog     []core.AppliedRecord
	RefLogs    [][]core.AppliedRecord

	// Final state per server, collected after the rescue phase.  FinalItems
	// is the stitched global keyspace view; FinalApplied the union of the
	// per-partition applied sets.
	FinalItems   [][]storage.Item
	FinalApplied []map[uint64]bool
	FinalCrashed []bool
	// Per-partition final state, indexed [partition][server]: the store in
	// the partition's local item space, and the partition's own applied set
	// (a committed cross-partition transaction must appear in EVERY write
	// partition's set — the atomic-commit invariant).
	FinalItemsByPart   [][][]storage.Item
	FinalAppliedByPart [][]map[uint64]bool
	// AppliedLogs holds every server's harness-side applied log (the
	// observer survives simulated crashes, so for server i it records every
	// transaction any incarnation of i externalised; for partitioned runs it
	// is the concatenation of the per-partition logs).  AppliedLogsByPart
	// keeps the same logs separated per partition, indexed
	// [partition][server] — the atomic-commit check needs to know WHICH
	// partition's decide record a never-crashed server externalised.
	AppliedLogs       [][]core.AppliedRecord
	AppliedLogsByPart [][][]core.AppliedRecord
}

// runnerIDBase tags fuzzer-assigned transaction IDs.  Replicas assign
// uint64(index+1)<<40 | n, so a base far above any replica index can never
// collide while keeping the IDs of timed-out submissions known to the
// harness.
const runnerIDBase = uint64(0xF5) << 40

// sessionCmd is one unit of work for a session goroutine.
type sessionCmd struct {
	step    Step
	stepIdx int
	barrier chan struct{} // non-nil: drain marker, close when reached
}

// Run executes the scenario and returns the run record.  The error return is
// reserved for harness failures (bad config, cluster startup); invariant
// violations are the checker's business, not Run's.
func Run(s *Scenario) (*RunRecord, error) {
	cfg, err := s.Cfg.resolve()
	if err != nil {
		return nil, err
	}
	level, err := core.ParseLevel(cfg.Level)
	if err != nil {
		return nil, err
	}

	cluster, err := partition.New(core.ClusterConfig{
		Replicas:      cfg.Replicas,
		Items:         cfg.Items,
		Level:         level,
		Partitions:    cfg.Partitions,
		ExecTimeout:   cfg.TxnTimeout,
		RecordApplied: true,
		Seed:          sim.DeriveSeed(cfg.Seed, streamNetwork),
	})
	if err != nil {
		return nil, fmt.Errorf("fuzz: start cluster: %w", err)
	}
	defer cluster.Close()

	rec := &RunRecord{
		Scenario:    s,
		Level:       cluster.Level(),
		Partitions:  cluster.NumPartitions(),
		PMap:        cluster.Map(),
		Sessions:    make([][]*TxnRec, cfg.Sessions),
		TxnByID:     make(map[uint64]*TxnRec),
		EverCrashed: make([]bool, cfg.Replicas),
		RefReplica:  -1,
	}

	r := &runner{
		cfg:     cfg,
		cluster: cluster,
		rec:     rec,
		crashed: make(map[int]bool),
	}
	r.drive(s.Steps)
	r.rescue()
	r.collect()
	return rec, nil
}

type runner struct {
	cfg     Config
	cluster *partition.Cluster
	rec     *RunRecord

	events  atomic.Uint64 // global event counter (ack/fault ordering)
	idGen   atomic.Uint64 // transaction ID counter
	tfCount atomic.Uint64 // total failures so far (sessions reset floors on change)

	crashed map[int]bool // driver-side crash bookkeeping (driver goroutine only)

	mu sync.Mutex // guards rec.Crashes/TotalFailures/EverCrashed
}

func (r *runner) addr(i int) string { return fmt.Sprintf("s%d", i+1) }

// drive feeds the schedule: transactions go to their session goroutine's
// queue (sessions run concurrently with fault injection, which is the point),
// faults are injected inline.
func (r *runner) drive(steps []Step) {
	queues := make([]chan sessionCmd, r.cfg.Sessions)
	var wg sync.WaitGroup
	for i := range queues {
		queues[i] = make(chan sessionCmd, len(steps)+1)
		wg.Add(1)
		go func(session int, q chan sessionCmd) {
			defer wg.Done()
			r.sessionLoop(session, q)
		}(i, queues[i])
	}

	for idx, st := range steps {
		switch st.Kind {
		case StepTxn:
			queues[st.Session%r.cfg.Sessions] <- sessionCmd{step: st, stepIdx: idx}
		case StepCrash:
			r.crash(st.Replica)
		case StepRecover:
			r.recover(st.Replica)
		case StepPartition:
			r.partition(st.Group)
		case StepHeal:
			r.cluster.BaseNetwork().Heal()
		case StepDelay:
			r.cluster.BaseNetwork().SetLatency(st.Latency)
			r.cluster.BaseNetwork().SetJitter(st.Jitter)
		case StepLoss:
			r.cluster.BaseNetwork().SetLoss(st.Loss)
		case StepBlock:
			if st.From != st.To && st.From < r.cfg.Replicas && st.To < r.cfg.Replicas {
				r.cluster.BaseNetwork().BlockLink(r.addr(st.From), r.addr(st.To))
			}
		case StepUnblock:
			r.cluster.BaseNetwork().UnblockAllLinks()
		case StepSleep:
			time.Sleep(st.Dur)
		case StepBarrier:
			r.barrier(queues)
		}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
}

// barrier waits until every session drained its queue.
func (r *runner) barrier(queues []chan sessionCmd) {
	done := make([]chan struct{}, len(queues))
	for i, q := range queues {
		done[i] = make(chan struct{})
		q <- sessionCmd{barrier: done[i]}
	}
	for _, ch := range done {
		<-ch
	}
}

// crash injects a crash of server i (replica i of every partition goes down
// together).  Ill-formed schedules (the shrinker produces them) are tolerated:
// crashing a crashed server is a no-op.
func (r *runner) crash(i int) {
	if i < 0 || i >= r.cfg.Replicas || r.crashed[i] {
		return
	}
	lsn := r.cluster.DurableLSN(i)
	r.cluster.Crash(i)
	r.crashed[i] = true
	total := r.cluster.LiveCount() == 0
	idx := r.events.Add(1)
	if total {
		r.tfCount.Add(1)
	}

	r.mu.Lock()
	r.rec.Crashes = append(r.rec.Crashes, CrashEvent{Replica: i, Idx: idx, DurableLSN: lsn, TotalFailure: total})
	if total {
		r.rec.TotalFailures = append(r.rec.TotalFailures, idx)
	}
	r.rec.EverCrashed[i] = true
	r.mu.Unlock()

	// The crash model has no failure detectors in the fuzzer (their timers
	// would fight the schedule); the driver plays the detector's role so the
	// broadcast does not wait forever for a dead member.
	for j := 0; j < r.cfg.Replicas; j++ {
		if j != i && !r.crashed[j] {
			r.cluster.Suspect(j, i)
		}
	}
}

// recover injects a recovery of replica i (no-op when it is not crashed).
func (r *runner) recover(i int) {
	if i < 0 || i >= r.cfg.Replicas || !r.crashed[i] {
		return
	}
	if _, err := r.cluster.Recover(i); err != nil {
		return // still crashed; leave the bookkeeping as is
	}
	delete(r.crashed, i)
	// Reconciliation of the suspicion bookkeeping: the survivors take the
	// recovered replica back, and its fresh incarnation learns who is dead.
	for j := 0; j < r.cfg.Replicas; j++ {
		if j == i {
			continue
		}
		if r.crashed[j] {
			r.cluster.Suspect(i, j)
		} else {
			r.cluster.Unsuspect(j, i)
		}
	}
}

func (r *runner) partition(group []int) {
	inGroup := make(map[int]bool, len(group))
	var a, b []string
	for _, g := range group {
		if g >= 0 && g < r.cfg.Replicas && !inGroup[g] {
			inGroup[g] = true
			a = append(a, r.addr(g))
		}
	}
	for i := 0; i < r.cfg.Replicas; i++ {
		if !inGroup[i] {
			b = append(b, r.addr(i))
		}
	}
	if len(a) == 0 || len(b) == 0 {
		return
	}
	r.cluster.BaseNetwork().Partition(a, b)
}

// sessionLoop is one client session: it executes its transactions strictly in
// order and maintains the session freshness floor (largest token seen, reset
// when a total failure may have restarted the sequence).  Partitioned runs
// track one floor per partition — the partitions' total orders are independent
// sequences, so a scalar floor (which floorFor applies to EVERY touched
// partition) could demand a token a short partition order never reaches.
func (r *runner) sessionLoop(session int, q chan sessionCmd) {
	var recs []*TxnRec
	var maxFresh uint64
	var tfSeen uint64
	useFloors := r.rec.Level.UsesGroupCommunication()
	parts := r.rec.Partitions
	var maxVec []uint64
	if parts > 1 {
		maxVec = make([]uint64, parts)
	}

	for cmd := range q {
		if cmd.barrier != nil {
			close(cmd.barrier)
			continue
		}
		st := cmd.step
		if tf := r.tfCount.Load(); tf != tfSeen {
			// A total failure may restart the broadcast sequence; the old
			// floor could be unreachable forever.
			tfSeen = tf
			maxFresh = 0
			for p := range maxVec {
				maxVec[p] = 0
			}
		}

		t := &TxnRec{
			Session:  session,
			StepIdx:  cmd.stepIdx,
			TxnID:    runnerIDBase | r.idGen.Add(1),
			Delegate: st.Delegate % r.cfg.Replicas,
			Query:    st.Query,
			Writes:   make(map[int]int64),
		}
		req := core.Request{ID: t.TxnID, Ops: st.Ops, ReadOnly: st.Query}
		for _, op := range st.Ops {
			if op.Write {
				t.Writes[op.Item] = op.Value
			}
		}
		if st.Query && st.Floor && useFloors {
			if parts > 1 {
				if vecAnyPositive(maxVec) {
					t.FloorVec = append([]uint64(nil), maxVec...)
					req.MinFreshnessVec = append([]uint64(nil), maxVec...)
				}
			} else if maxFresh > 0 {
				t.Floor = maxFresh
				req.MinFreshness = maxFresh
			}
		}

		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.TxnTimeout)
		t.SubmitIdx = r.events.Add(1)
		res, err := r.cluster.Execute(ctx, t.Delegate, req)
		cancel()
		t.AckIdx = r.events.Add(1)
		if err != nil {
			t.Err = err
		} else {
			t.Acked = true
			t.Outcome = res.Outcome
			t.Level = res.Level
			t.DelegateID = res.Delegate
			t.Freshness = res.Freshness
			t.FreshnessVec = res.FreshnessVec
			t.ReadValues = res.ReadValues
			if res.Freshness > maxFresh {
				maxFresh = res.Freshness
			}
			for p, f := range res.FreshnessVec {
				if p < len(maxVec) && f > maxVec[p] {
					maxVec[p] = f
				}
			}
		}
		recs = append(recs, t)
	}

	r.mu.Lock()
	r.rec.Sessions[session] = recs
	for _, t := range recs {
		r.rec.TxnByID[t.TxnID] = t
	}
	r.mu.Unlock()
}

// rescue heals every fault, recovers every crashed replica (most durable
// first, so the first recovery — the one with no live donor after a total
// failure — starts from the longest durable log) and drives the cluster to
// convergence.  At the group-communication levels a replica stranded
// behind a dropped message cannot catch up by waiting (the transport has no
// retransmission), so non-convergence is repaired the way the paper's
// checkpoint recovery does: crash and recover the stragglers, which pulls a
// state snapshot from the most advanced peer.
func (r *runner) rescue() {
	net := r.cluster.BaseNetwork()
	net.Heal()
	net.UnblockAllLinks()
	net.SetLatency(0)
	net.SetJitter(0)
	net.SetLoss(0)
	// Let in-flight delayed deliveries land before state transfer starts.
	time.Sleep(20 * time.Millisecond)

	for len(r.crashed) > 0 {
		best, bestLSN := -1, uint64(0)
		for i := range r.crashed {
			if lsn := r.cluster.DurableLSN(i); best == -1 || lsn > bestLSN {
				best, bestLSN = i, lsn
			}
		}
		r.recover(best)
		if r.crashed[best] {
			delete(r.crashed, best) // recovery failed; don't loop forever
		}
	}
	r.resolveInDoubt()

	groupComm := r.rec.Level.UsesGroupCommunication()
	deadline := 1500 * time.Millisecond
	for round := 0; ; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		err := r.cluster.WaitConsistent(ctx)
		cancel()
		if err == nil {
			r.rec.Converged = true
			r.rec.ConvergeErr = nil
			return
		}
		r.rec.ConvergeErr = err
		if !groupComm || round >= 2 {
			return
		}
		// Straggler repair: cycle every replica through checkpoint recovery;
		// each pulls state from the currently most advanced live peer.
		for i := 0; i < r.cfg.Replicas; i++ {
			r.crash(i)
			r.recover(i)
		}
		r.resolveInDoubt()
		time.Sleep(10 * time.Millisecond)
		deadline = 2500 * time.Millisecond
	}
}

// resolveInDoubt settles orphaned cross-partition prepares (the coordinator's
// client died mid-2PC): presumed abort asks each coordinator partition for the
// authoritative decision and propagates it, releasing the certification locks
// that would otherwise abort every conflicting transaction forever.  A real
// deployment runs this resolver periodically; the rescue phase runs it once
// after recovery (and once per straggler-repair round, which can replay a
// prepare from a donor's snapshot).
func (r *runner) resolveInDoubt() {
	if r.rec.Partitions <= 1 {
		return
	}
	// A round can miss (the bounded context expires under a long in-doubt
	// backlog); retry a few times — each round gets a fresh budget and the
	// backlog only shrinks.
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		n, err := r.cluster.ResolveInDoubt(ctx)
		cancel()
		if n == 0 && err == nil {
			return
		}
	}
}

// collect gathers the final state and the reference logs: per-partition state
// as the partitions hold it, plus the stitched global view (FinalItems in
// global item order, FinalApplied as the union) the scalar invariants consume.
func (r *runner) collect() {
	rec := r.rec
	parts := rec.Partitions
	rec.FinalItems = make([][]storage.Item, r.cfg.Replicas)
	rec.FinalApplied = make([]map[uint64]bool, r.cfg.Replicas)
	rec.FinalCrashed = make([]bool, r.cfg.Replicas)
	rec.AppliedLogs = make([][]core.AppliedRecord, r.cfg.Replicas)
	rec.FinalItemsByPart = make([][][]storage.Item, parts)
	rec.FinalAppliedByPart = make([][]map[uint64]bool, parts)
	rec.AppliedLogsByPart = make([][][]core.AppliedRecord, parts)
	for p := 0; p < parts; p++ {
		rec.FinalItemsByPart[p] = make([][]storage.Item, r.cfg.Replicas)
		rec.FinalAppliedByPart[p] = make([]map[uint64]bool, r.cfg.Replicas)
		rec.AppliedLogsByPart[p] = make([][]core.AppliedRecord, r.cfg.Replicas)
	}

	for i := 0; i < r.cfg.Replicas; i++ {
		rec.FinalCrashed[i] = r.cluster.ReplicaCrashed(i)
		global := make([]storage.Item, rec.PMap.Items())
		union := make(map[uint64]bool)
		for p := 0; p < parts; p++ {
			rep := r.cluster.Part(p).Replica(i)
			items := rep.StoreItems()
			rec.FinalItemsByPart[p][i] = items
			for local, it := range items {
				if g := rec.PMap.Global(p, local); g < len(global) {
					global[g] = it
				}
			}
			pApplied := make(map[uint64]bool)
			for _, id := range rep.DB().AppliedTxns() {
				pApplied[id] = true
				union[id] = true
			}
			rec.FinalAppliedByPart[p][i] = pApplied
			rec.AppliedLogsByPart[p][i] = rep.AppliedLog()
			rec.AppliedLogs[i] = append(rec.AppliedLogs[i], rec.AppliedLogsByPart[p][i]...)
		}
		rec.FinalItems[i] = global
		rec.FinalApplied[i] = union
		if !rec.EverCrashed[i] && rec.RefReplica == -1 {
			rec.RefReplica = i
		}
	}
	if rec.RefReplica >= 0 {
		if parts == 1 {
			rec.RefLog = rec.AppliedLogs[rec.RefReplica]
		} else {
			rec.RefLogs = make([][]core.AppliedRecord, parts)
			for p := 0; p < parts; p++ {
				rec.RefLogs[p] = r.cluster.Part(p).Replica(rec.RefReplica).AppliedLog()
			}
		}
	}
}

// vecAnyPositive reports whether any entry of a freshness vector is set.
func vecAnyPositive(vec []uint64) bool {
	for _, v := range vec {
		if v > 0 {
			return true
		}
	}
	return false
}
