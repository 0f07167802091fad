package partition

import (
	"context"
	"fmt"
	"sync"

	"groupsafe/internal/core"
	"groupsafe/internal/workload"
)

// This file is the router: the layer between the public API and the
// per-partition core clusters.  It classifies each request, translates global
// item indices into the owning partitions' local spaces, and composes the
// per-partition primitives (core.Replica.SnapshotReads / SubmitCertified /
// SubmitPrepare / SubmitDecide) into one client-visible transaction.
//
// Paths, in increasing cost:
//
//   - unpartitioned (P == 1): pass-through to the single core cluster — the
//     exact unchanged code path of an unpartitioned deployment;
//   - single-partition (all statically known items in one partition, no
//     Compute hook): the request is forwarded whole to the owning partition,
//     which executes it like any local transaction — one broadcast, no 2PC;
//   - read-only multi-partition: the router's read phase fans snapshot reads
//     out to every touched partition, each reporting its own freshness token
//     (the vector);
//   - cross-partition update: the same read phase, then Compute, the
//     decomposed write set, and the ordered two-phase commit — prepares
//     through every participant's total order, the coordinator partition's
//     decide record as the commit point, presumed abort everywhere else.
type routed struct {
	level    core.SafetyLevel
	reads    map[int][]int          // partition -> local read items (deduped)
	writes   map[int]map[int]int64  // partition -> local write set
	readVals map[int]int64          // global item -> value (router read phase)
	readVers map[int]map[int]uint64 // partition -> local item -> version
	tokens   []uint64               // partition -> freshness token observed
}

// Execute routes one client transaction; delegate is the preferred server
// index (the same replica slot is preferred in every touched partition).
func (c *Cluster) Execute(ctx context.Context, delegate int, req core.Request) (core.Result, error) {
	if len(c.parts) == 1 {
		// Unpartitioned pass-through.  A vector floor degenerates to the
		// scalar (entry 0 IS the only total order); core ignores the vector.
		if len(req.MinFreshnessVec) > 0 && req.MinFreshnessVec[0] > req.MinFreshness {
			req.MinFreshness = req.MinFreshnessVec[0]
		}
		return c.parts[0].Execute(ctx, delegate, req)
	}

	if req.ReadOnly && requestMayWrite(req) {
		return core.Result{}, fmt.Errorf("%w: txn %d", core.ErrReadOnlyWrites, req.ID)
	}
	for _, op := range req.Ops {
		if op.Item < 0 || op.Item >= c.pmap.Items() {
			return core.Result{}, fmt.Errorf("%w: item %d out of range", core.ErrNotFound, op.Item)
		}
	}
	if req.ID == 0 {
		req.ID = c.newGID()
	}

	touched := c.touchedPartitions(req.Ops)
	if req.Compute == nil {
		switch len(touched) {
		case 0:
			// No operations at all: any partition can answer (core returns an
			// empty committed result with that partition's freshness token).
			return c.forwardSingle(ctx, delegate, req, 0)
		case 1:
			return c.forwardSingle(ctx, delegate, req, touched[0])
		}
	}
	return c.executeMulti(ctx, delegate, req)
}

// requestMayWrite mirrors core's classification: the request can update the
// database if it contains a write operation or a Compute hook (which could
// emit one).
func requestMayWrite(req core.Request) bool {
	if req.Compute != nil {
		return true
	}
	for _, op := range req.Ops {
		if op.Write {
			return true
		}
	}
	return false
}

// touchedPartitions returns the sorted set of partitions owning any item in
// ops.
func (c *Cluster) touchedPartitions(ops []workload.Op) []int {
	seen := make([]bool, len(c.parts))
	for _, op := range ops {
		seen[c.pmap.Owner(op.Item)] = true
	}
	out := make([]int, 0, 2)
	for p, s := range seen {
		if s {
			out = append(out, p)
		}
	}
	return out
}

// floorFor resolves the freshness floor for partition p: the scalar floor
// applies to every touched partition, a vector entry strengthens its own.
func floorFor(req *core.Request, p int) uint64 {
	floor := req.MinFreshness
	if p < len(req.MinFreshnessVec) && req.MinFreshnessVec[p] > floor {
		floor = req.MinFreshnessVec[p]
	}
	return floor
}

// forwardSingle sends the whole request to the one partition owning every
// item it names: the partition executes it exactly like a local transaction
// (snapshot reads, or one certified broadcast).  Only the item indices are
// rewritten on the way in and the read values on the way out.
func (c *Cluster) forwardSingle(ctx context.Context, delegate int, req core.Request, p int) (core.Result, error) {
	sub := req
	sub.MinFreshness = floorFor(&req, p)
	sub.MinFreshnessVec = nil
	if len(req.Ops) > 0 {
		ops := make([]workload.Op, len(req.Ops))
		for i, op := range req.Ops {
			op.Item = c.pmap.Local(op.Item)
			ops[i] = op
		}
		sub.Ops = ops
	}
	res, err := c.parts[p].Execute(ctx, delegate, sub)
	if err != nil {
		return res, err
	}
	if len(res.ReadValues) > 0 {
		global := make(map[int]int64, len(res.ReadValues))
		for local, v := range res.ReadValues {
			global[c.pmap.Global(p, local)] = v
		}
		res.ReadValues = global
	}
	res.CommitPartition = p
	vec := make([]uint64, len(c.parts))
	vec[p] = res.Freshness
	res.FreshnessVec = vec
	return res, nil
}

// executeMulti is the multi-partition path: router-side read phase, Compute,
// decomposition, and — when more than one partition participates — the
// ordered two-phase commit.  A query (or a Compute that emitted no write) is
// answered from the read phase's per-partition snapshots: each is an
// individually consistent cut, and the transaction-wide guarantee is exactly
// the freshness vector — there is no cross-partition snapshot.
func (c *Cluster) executeMulti(ctx context.Context, delegate int, req core.Request) (core.Result, error) {
	level, err := c.resolveLevel(delegate, req.Safety)
	if err != nil {
		return core.Result{}, err
	}
	rt := &routed{
		level:    level,
		reads:    make(map[int][]int),
		writes:   make(map[int]map[int]int64),
		readVals: make(map[int]int64),
		readVers: make(map[int]map[int]uint64),
		tokens:   make([]uint64, len(c.parts)),
	}
	c.classifyOps(rt, req.Ops)

	// Round 1: snapshot-read every partition with read operations.  Each
	// partition's (item, version) pairs come from one atomic snapshot; the
	// versions are what its certification will validate at prepare time.
	if err := c.readPhase(ctx, delegate, &req, rt, !requestMayWrite(req)); err != nil {
		return core.Result{}, err
	}

	// Compute runs at the router over the merged reads; extra reads it emits
	// (rare) trigger one more fan-out round, extra writes join the write set.
	if req.Compute != nil {
		extra := req.Compute(rt.readVals)
		for _, op := range extra {
			if op.Item < 0 || op.Item >= c.pmap.Items() {
				return core.Result{}, fmt.Errorf("%w: item %d out of range", core.ErrNotFound, op.Item)
			}
		}
		rt.reads = make(map[int][]int)
		c.classifyOps(rt, extra)
		for p, items := range rt.reads {
			fresh := items[:0]
			for _, it := range items {
				if _, seen := rt.readVers[p][it]; !seen {
					fresh = append(fresh, it)
				}
			}
			if len(fresh) == 0 {
				delete(rt.reads, p)
			} else {
				rt.reads[p] = fresh
			}
		}
		if len(rt.reads) > 0 {
			if err := c.readPhase(ctx, delegate, &req, rt, false); err != nil {
				return core.Result{}, err
			}
		}
	}

	// Nothing to write: answer from the snapshots.
	if len(rt.writes) == 0 {
		return core.Result{
			TxnID:        req.ID,
			Outcome:      core.OutcomeCommitted,
			ReadValues:   rt.readVals,
			Delegate:     c.ReplicaID(delegate),
			Level:        level,
			Freshness:    maxVec(rt.tokens),
			FreshnessVec: rt.tokens,
		}, nil
	}

	participants := c.participants(rt)
	if len(participants) == 1 {
		return c.commitSingle(ctx, delegate, req.ID, rt, participants[0])
	}
	return c.commit2PC(ctx, delegate, req.ID, rt, participants)
}

// classifyOps merges ops into the routed read/write sets (local indices).
func (c *Cluster) classifyOps(rt *routed, ops []workload.Op) {
	for _, op := range ops {
		p := c.pmap.Owner(op.Item)
		local := c.pmap.Local(op.Item)
		if op.Write {
			w := rt.writes[p]
			if w == nil {
				w = make(map[int]int64)
				rt.writes[p] = w
			}
			w[local] = op.Value
		} else {
			rt.reads[p] = appendUnique(rt.reads[p], local)
		}
	}
}

// readPhase fans the pending rt.reads out to their partitions, merging values
// (global keys), versions (local keys, first observation wins) and tokens.
// A query's reads are what the client sees and count as served queries; the
// read phase of an update is invisible to the client and does not.
func (c *Cluster) readPhase(ctx context.Context, delegate int, req *core.Request, rt *routed, query bool) error {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for p, items := range rt.reads {
		wg.Add(1)
		go func(p int, items []int) {
			defer wg.Done()
			r := c.liveReplica(p, delegate)
			if r == nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("partition %d: %w", p, core.ErrCrashed)
				}
				mu.Unlock()
				return
			}
			vals, vers, token, err := r.SnapshotReads(ctx, items, floorFor(req, p), 0, query)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			pv := rt.readVers[p]
			if pv == nil {
				pv = make(map[int]uint64, len(vers))
				rt.readVers[p] = pv
			}
			for local, v := range vals {
				rt.readVals[c.pmap.Global(p, local)] = v
			}
			for local, ver := range vers {
				if _, seen := pv[local]; !seen {
					pv[local] = ver
				}
			}
			if token > rt.tokens[p] {
				rt.tokens[p] = token
			}
		}(p, items)
	}
	wg.Wait()
	return firstErr
}

// participants returns the sorted partitions taking part in the commit: every
// partition with writes, plus every partition whose reads must be validated
// (certification is what makes the cross-partition history serializable, so
// read-only participants vote too).
func (c *Cluster) participants(rt *routed) []int {
	out := make([]int, 0, len(rt.writes)+len(rt.readVers))
	for p := range c.parts {
		if _, ok := rt.writes[p]; ok {
			out = append(out, p)
			continue
		}
		if len(rt.readVers[p]) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// commitSingle finishes a router-executed transaction whose reads and writes
// all live in one partition: a single certified broadcast, no 2PC.
func (c *Cluster) commitSingle(ctx context.Context, delegate int, gid uint64, rt *routed, p int) (core.Result, error) {
	r := c.liveReplica(p, delegate)
	if r == nil {
		return core.Result{}, fmt.Errorf("partition %d: %w", p, core.ErrCrashed)
	}
	outcome, lsn, seq, err := r.SubmitCertified(ctx, gid, rt.level, rt.readVers[p], rt.writes[p])
	if err != nil {
		return core.Result{}, err
	}
	vec := rt.tokens
	vec[p] = seq
	return core.Result{
		TxnID:           gid,
		Outcome:         outcome,
		ReadValues:      rt.readVals,
		Delegate:        r.ID(),
		Level:           rt.level,
		CommitLSN:       lsn,
		CommitPartition: p,
		Freshness:       maxVec(vec),
		FreshnessVec:    vec,
	}, nil
}

// commit2PC drives the ordered two-phase commit across the participants:
//
//  1. every participant's prepare rides its own total order; each partition
//     certifies deterministically and stages the sub-transaction in-doubt
//     (a forced KindPrepare record at the transaction's safety level), so
//     the vote survives any minority of replica crashes;
//  2. the decide is submitted to the COORDINATOR partition first (the lowest
//     participant id).  Its recorded decision — first decision wins against
//     the presumed-abort resolver — is the transaction's commit point and
//     the authoritative outcome;
//  3. the authoritative outcome is propagated to the remaining participants.
//     Propagation is retried across live replicas; a participant that stays
//     unreachable keeps its sub-transaction in-doubt (its certification
//     locks block conflicting transactions) until ResolveInDoubt or a later
//     propagation settles it — never a unilateral guess.
//
// Abort decisions are recorded at the coordinator too: presumed abort only
// presumes when no decision exists, and recording it closes the race with a
// prepare still in flight.
func (c *Cluster) commit2PC(ctx context.Context, delegate int, gid uint64, rt *routed, participants []int) (core.Result, error) {
	coord := participants[0]
	var mu sync.Mutex
	var wg sync.WaitGroup
	voteYes := true
	var prepErr error
	prepSeq := make(map[int]uint64, len(participants))
	for _, p := range participants {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			r := c.liveReplica(p, delegate)
			var outcome core.Outcome
			var seq uint64
			var err error
			if r == nil {
				err = fmt.Errorf("partition %d: %w", p, core.ErrCrashed)
			} else {
				outcome, seq, err = r.SubmitPrepare(ctx, gid, rt.level, coord, rt.readVers[p], rt.writes[p])
			}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				voteYes = false
				if prepErr == nil {
					prepErr = err
				}
				return
			}
			if outcome != core.OutcomeCommitted {
				voteYes = false
			}
			prepSeq[p] = seq
		}(p)
	}
	wg.Wait()

	// The coordinator's decide is the commit point.  When the caller's
	// context has already died (a prepare timed out), the decision still must
	// be recorded — otherwise every yes-voting participant stays locked until
	// the in-doubt resolver happens by — so the decide gets its own bounded
	// context.
	decideCtx, cancel := c.decideContext(ctx)
	defer cancel()
	committed, coordLSN, coordSeq, coordID, decErr := c.decideAt(decideCtx, coord, delegate, gid, rt.level, voteYes, rt.writes[coord])
	if decErr != nil {
		if voteYes {
			// In-doubt: the decision did not record.  Surface the error; the
			// participants' locks are settled by ResolveInDoubt.
			return core.Result{}, fmt.Errorf("partition: txn %d in-doubt at coordinator %d: %w", gid, coord, decErr)
		}
		return core.Result{}, prepErr
	}

	// Propagate the authoritative outcome to the other participants.
	var pwg sync.WaitGroup
	for _, p := range participants {
		if p == coord {
			continue
		}
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			_, _, seq, _, err := c.decideAt(decideCtx, p, delegate, gid, rt.level, committed, rt.writes[p])
			if err == nil {
				mu.Lock()
				prepSeq[p] = seq
				mu.Unlock()
			}
		}(p)
	}
	pwg.Wait()

	outcome := core.OutcomeAborted
	if committed {
		outcome = core.OutcomeCommitted
	}
	if !committed && prepErr != nil {
		return core.Result{}, prepErr
	}
	vec := rt.tokens
	for p, seq := range prepSeq {
		if seq > vec[p] {
			vec[p] = seq
		}
	}
	vec[coord] = coordSeq
	return core.Result{
		TxnID:           gid,
		Outcome:         outcome,
		ReadValues:      rt.readVals,
		Delegate:        coordID,
		Level:           rt.level,
		CommitLSN:       coordLSN,
		CommitPartition: coord,
		Freshness:       maxVec(vec),
		FreshnessVec:    vec,
	}, nil
}

// decideAt submits the decision for gid through partition p's total order,
// retrying across p's live replicas, and returns the outcome actually
// recorded there (true = committed).
func (c *Cluster) decideAt(ctx context.Context, p, prefer int, gid uint64, level core.SafetyLevel, commit bool, writes map[int]int64) (bool, uint64, uint64, string, error) {
	n := c.parts[p].Size()
	var lastErr error
	for k := 0; k < n; k++ {
		i := (prefer + k) % n
		r := c.parts[p].Replica(i)
		if r == nil || r.Crashed() {
			continue
		}
		outcome, lsn, seq, err := r.SubmitDecide(ctx, gid, level, commit, writes)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break
			}
			continue
		}
		return outcome == core.OutcomeCommitted, lsn, seq, r.ID(), nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("partition %d: %w", p, core.ErrCrashed)
	}
	return false, 0, 0, "", lastErr
}

// decideContext derives the context bounding the decide round: the caller's
// context when it is still alive, a fresh one bounded by the cluster's
// Execute timeout when it already died mid-prepare (the decision must still
// be recorded to release the participants' certification locks, but a
// partition that stays unreachable is the in-doubt resolver's business, not
// an unbounded wait here).
func (c *Cluster) decideContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx.Err() == nil {
		return ctx, func() {}
	}
	return context.WithTimeout(context.Background(), c.execTimeout)
}

// resolveLevel resolves a per-request safety override against any live
// replica (every partition runs the identical level machinery).
func (c *Cluster) resolveLevel(delegate int, override *core.SafetyLevel) (core.SafetyLevel, error) {
	for p := range c.parts {
		if r := c.liveReplica(p, delegate); r != nil {
			return r.ResolveLevel(override)
		}
	}
	return 0, core.ErrCrashed
}

// ResolveInDoubt runs the presumed-abort resolver once: it scans every
// partition for prepared-but-undecided transactions, asks each transaction's
// coordinator partition for the authoritative decision (submitting an abort
// decide — which records an abort only if no decision exists yet, and
// otherwise returns the decision already made), and propagates that decision
// to the partition holding the in-doubt prepare.  It returns the number of
// in-doubt transactions settled.
//
// The resolver is safe to run at any time, concurrently with live traffic and
// with a crashed coordinator's own client-side decide: the coordinator
// partition's total order serialises both, and whichever decision lands first
// wins.  A partition that is entirely down is skipped and retried on the next
// run.
func (c *Cluster) ResolveInDoubt(ctx context.Context) (int, error) {
	if len(c.parts) == 1 {
		return 0, nil
	}
	level := c.Level()
	resolved := 0
	var firstErr error
	for p := range c.parts {
		r := c.liveReplica(p, 0)
		if r == nil {
			continue
		}
		for _, gid := range r.DB().PreparedGIDs() {
			info, ok := r.DB().PreparedInfo(gid)
			if !ok {
				continue
			}
			// Ask the coordinator: presumed abort means "abort unless a
			// decision is already recorded"; the recorded decision comes back
			// as the authoritative outcome either way.
			committed, _, _, _, err := c.decideAt(ctx, info.Coord, 0, gid, level, false, nil)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			writes := make(map[int]int64, len(info.Writes))
			for _, w := range info.Writes {
				writes[w.Item] = w.Value
			}
			if _, _, _, _, err := c.decideAt(ctx, p, 0, gid, level, committed, writes); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			resolved++
		}
	}
	return resolved, firstErr
}

// appendUnique appends v to s unless already present (read sets are tiny;
// linear scan beats a map).
func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// maxVec returns the largest entry of the freshness vector.
func maxVec(vec []uint64) uint64 {
	var m uint64
	for _, v := range vec {
		if v > m {
			m = v
		}
	}
	return m
}
