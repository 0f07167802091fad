package fuzz

import (
	"fmt"
	"strconv"
	"strings"

	"groupsafe/internal/core"
)

// The invariant suite checks a finished run against the paper's correctness
// claims.  Every check is written to hold for EVERY interleaving of the
// schedule: it never assumes a particular timing, only the event-counter
// ordering and the durable frontiers the runner recorded.  A check that
// cannot be decided soundly for a run (no never-crashed reference replica,
// sequence numbers made incomparable by a total failure) is skipped, never
// guessed.

// Violation is one invariant failure.
type Violation struct {
	// Invariant names the failed check ("durability", "one-copy", ...).
	Invariant string
	// Detail is a human-readable account of the failure.
	Detail string
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

func violationf(list *[]Violation, invariant, format string, args ...interface{}) {
	*list = append(*list, Violation{Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// CheckAll runs the full invariant suite over a run record.
func CheckAll(rec *RunRecord) []Violation {
	var out []Violation
	checkDurability(rec, &out)
	checkRefDurability(rec, &out)
	checkOneCopy(rec, &out)
	checkOneCopyPartitioned(rec, &out)
	checkAtomicCommit(rec, &out)
	checkFreshness(rec, &out)
	checkFreshnessVec(rec, &out)
	checkSessionRouting(rec, &out)
	checkTimeline(rec, &out)
	checkConvergence(rec, &out)
	return out
}

// replicaIndex parses a replica address ("s3" -> 2); -1 when unknown.
func replicaIndex(id string) int {
	if !strings.HasPrefix(id, "s") {
		return -1
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 1 {
		return -1
	}
	return n - 1
}

// checkDurability is the no-lost-acknowledged-transaction invariant, with the
// loss window graded exactly by safety level (the core claim of the paper):
//
//   - 2-safe and very-safe: an acknowledged committed update survives ANY
//     combination of crashes, total failure included.
//   - group-safe and group-1-safe: loss is excused only when every replica
//     that externalised the transaction crashed afterwards (the
//     responded-but-not-durable window group-safety deliberately leaves open).
//   - 0-safe and lazy (1-safe): loss is excused only when the delegate
//     crashed after acknowledging.
//
// "Lost" means: applied at no live replica after the rescue phase.
func checkDurability(rec *RunRecord, out *[]Violation) {
	for _, t := range allTxns(rec) {
		if !t.Committed() || !t.Update() {
			continue
		}
		if presentAnywhere(rec, t.TxnID) {
			continue
		}
		delegate := replicaIndex(t.DelegateID)
		delegateCrashed := delegate >= 0 && delegate < len(rec.EverCrashed) && rec.EverCrashed[delegate]
		switch t.Level {
		case core.Safety2, core.VerySafe:
			violationf(out, "durability",
				"txn %#x (session %d, step %d, level %v) was acknowledged committed but is applied at no live replica",
				t.TxnID, t.Session, t.StepIdx, t.Level)
		case core.GroupSafe, core.Group1Safe:
			if delegateCrashed && allHoldersCrashed(rec, t.TxnID) {
				continue // the group-safe loss window: every holder died
			}
			violationf(out, "durability",
				"txn %#x (session %d, level %v) lost although a replica that externalised it never crashed",
				t.TxnID, t.Session, t.Level)
		default: // Safety0, Safety1Lazy
			if delegateCrashed {
				continue // the 1-safe window: the delegate died before propagating
			}
			violationf(out, "durability",
				"txn %#x (session %d, level %v) lost although its delegate %s never crashed",
				t.TxnID, t.Session, t.Level, t.DelegateID)
		}
	}
}

func allTxns(rec *RunRecord) []*TxnRec {
	var all []*TxnRec
	for _, s := range rec.Sessions {
		all = append(all, s...)
	}
	return all
}

func presentAnywhere(rec *RunRecord, txnID uint64) bool {
	for i, applied := range rec.FinalApplied {
		if !rec.FinalCrashed[i] && applied[txnID] {
			return true
		}
	}
	return false
}

// allHoldersCrashed reports whether every replica whose applied log contains
// txnID crashed at some point.  The applied logs are harness-side observers
// that survive crashes, so a replica that externalised the transaction and
// never crashed must still hold it — if it does not, the loss is real.
func allHoldersCrashed(rec *RunRecord, txnID uint64) bool {
	for i, log := range rec.AppliedLogs {
		for _, e := range log {
			if e.TxnID == txnID && !rec.EverCrashed[i] {
				return false
			}
		}
	}
	return true
}

// checkRefDurability: a replica that never crashed can never lose anything —
// every transaction it externalised as committed must be in its applied set.
// Prepare votes are skipped: a yes vote with no decision resolves by presumed
// abort, so "externalised committed" only counts decide and certify records.
func checkRefDurability(rec *RunRecord, out *[]Violation) {
	if rec.RefReplica < 0 {
		return
	}
	applied := rec.FinalApplied[rec.RefReplica]
	for _, e := range rec.AppliedLogs[rec.RefReplica] {
		if !e.Vote && e.Outcome == core.OutcomeCommitted && !applied[e.TxnID] {
			violationf(out, "durability",
				"replica %d never crashed but txn %#x (committed at seq %d in its own applied log) is missing from its applied set",
				rec.RefReplica, e.TxnID, e.Seq)
		}
	}
}

// committedHistory is the deduplicated committed history of one applied log:
// for each transaction, its FIRST non-vote externalisation (re-deliveries
// after a peer's end-to-end replay are idempotent — only the first occurrence
// installed writes; a 2PC prepare vote installs nothing, the decide record
// with the same TxnID is the install point).
func committedHistory(log []core.AppliedRecord) []core.AppliedRecord {
	seen := make(map[uint64]bool)
	var hist []core.AppliedRecord
	for _, e := range log {
		if e.Vote || seen[e.TxnID] {
			continue
		}
		seen[e.TxnID] = true
		if e.Outcome == core.OutcomeCommitted {
			hist = append(hist, e)
		}
	}
	return hist
}

func refHistory(rec *RunRecord) []core.AppliedRecord { return committedHistory(rec.RefLog) }

// checkOneCopy replays the committed write sets in the total order a
// never-crashed replica recorded and compares the resulting one-copy database
// (values AND versions) against that replica's actual final store.  This is
// one-copy serializability made mechanical: every certification decision the
// cluster took must be explainable by the serial execution of the committed
// history.
func checkOneCopy(rec *RunRecord, out *[]Violation) {
	if rec.RefReplica < 0 || len(rec.RefLog) == 0 {
		return
	}
	items := len(rec.FinalItems[rec.RefReplica])
	values := make([]int64, items)
	versions := make([]uint64, items)
	for _, e := range refHistory(rec) {
		t := rec.TxnByID[e.TxnID]
		if t == nil {
			// A transaction the harness did not submit: nothing to replay
			// against, so the check would be guessing.
			return
		}
		for item, v := range t.Writes {
			if item < items {
				values[item] = v
				versions[item]++
			}
		}
	}
	final := rec.FinalItems[rec.RefReplica]
	for i := 0; i < items; i++ {
		if final[i].Value != values[i] || final[i].Version != versions[i] {
			violationf(out, "one-copy",
				"replica %d item %d: serial replay of its committed history gives value=%d version=%d, store holds value=%d version=%d",
				rec.RefReplica, i, values[i], versions[i], final[i].Value, final[i].Version)
		}
	}
}

// checkOneCopyPartitioned is the one-copy replay for partitioned runs, per
// partition: each partition's total order is an independent sequence, so each
// is replayed separately against the reference server's per-partition store.
// A cross-partition transaction installs at its decide position in each
// participant's order (committedHistory skips its prepare vote), with the
// write set filtered to the items the partition owns.
func checkOneCopyPartitioned(rec *RunRecord, out *[]Violation) {
	if rec.Partitions <= 1 || rec.RefReplica < 0 {
		return
	}
	for p, log := range rec.RefLogs {
		final := rec.FinalItemsByPart[p][rec.RefReplica]
		values := make([]int64, len(final))
		versions := make([]uint64, len(final))
		for _, e := range committedHistory(log) {
			t := rec.TxnByID[e.TxnID]
			if t == nil {
				return // not a harness transaction: the replay would be guessing
			}
			for g, v := range t.Writes {
				if rec.PMap.Owner(g) != p {
					continue
				}
				if local := rec.PMap.Local(g); local < len(final) {
					values[local] = v
					versions[local]++
				}
			}
		}
		for i := range final {
			if final[i].Value != values[i] || final[i].Version != versions[i] {
				violationf(out, "one-copy",
					"partition %d server %d item %d (global %d): serial replay of the partition's committed history gives value=%d version=%d, store holds value=%d version=%d",
					p, rec.RefReplica, i, rec.PMap.Global(p, i), values[i], versions[i], final[i].Value, final[i].Version)
			}
		}
	}
}

// writePartitions returns the sorted partitions owning any item of t's write
// set.
func writePartitions(rec *RunRecord, t *TxnRec) []int {
	seen := make([]bool, rec.Partitions)
	for g := range t.Writes {
		if g < rec.PMap.Items() {
			seen[rec.PMap.Owner(g)] = true
		}
	}
	var out []int
	for p, s := range seen {
		if s {
			out = append(out, p)
		}
	}
	return out
}

// partHoldersAllCrashed reports whether every server that externalised the
// COMMIT of txnID through partition q's total order (decide or certify record,
// votes excluded) crashed at some point.  A never-crashed holder must still
// have the install — if partition q lost it anyway, the loss is real.
func partHoldersAllCrashed(rec *RunRecord, q int, txnID uint64) bool {
	for i, log := range rec.AppliedLogsByPart[q] {
		if rec.EverCrashed[i] {
			continue
		}
		for _, e := range log {
			if e.TxnID == txnID && !e.Vote && e.Outcome == core.OutcomeCommitted {
				return false
			}
		}
	}
	return true
}

// checkAtomicCommit is the cross-partition atomicity invariant: a transaction
// writing several partitions installs at ALL of them or at NONE.
//
//   - An acknowledged ABORT must be installed nowhere, unconditionally: the
//     abort decision is recorded at the coordinator before the client learns
//     it, and the first decision wins against every later prepare or resolve.
//   - A transaction installed at SOME write partition must be installed at
//     every other write partition too.  At 2-safe and very-safe there is no
//     excuse: the prepare and the decide are forced durable, so recovery plus
//     the presumed-abort resolver always completes the commit.  At the
//     group-safe levels a partition's prepare or the coordinator's decide
//     record can die with its holders (the same responded-but-not-durable
//     window the durability check grades), so the missing partition is excused
//     only when every server that externalised the commit there crashed.
//
// "Installed" is judged at live servers after the rescue phase resolved every
// in-doubt transaction.
func checkAtomicCommit(rec *RunRecord, out *[]Violation) {
	if rec.Partitions <= 1 {
		return
	}
	for _, t := range allTxns(rec) {
		if !t.Update() {
			continue
		}
		parts := writePartitions(rec, t)
		if len(parts) < 2 {
			continue
		}
		present := make(map[int]bool)
		for _, q := range parts {
			for i, applied := range rec.FinalAppliedByPart[q] {
				if !rec.FinalCrashed[i] && applied[t.TxnID] {
					present[q] = true
					break
				}
			}
		}
		if t.Acked && t.Outcome == core.OutcomeAborted {
			for _, q := range parts {
				if present[q] {
					violationf(out, "atomic-commit",
						"txn %#x (session %d, step %d) was acknowledged aborted but partition %d installed its writes",
						t.TxnID, t.Session, t.StepIdx, q)
				}
			}
			continue
		}
		if len(present) == 0 {
			continue // installed nowhere: total loss is the durability check's business
		}
		level := rec.Level
		if t.Acked {
			level = t.Level
		}
		for _, q := range parts {
			if present[q] {
				continue
			}
			if level != core.Safety2 && level != core.VerySafe && partHoldersAllCrashed(rec, q, t.TxnID) {
				continue // the group-safe loss window, per partition
			}
			violationf(out, "atomic-commit",
				"txn %#x (session %d, step %d, level %v) installed its writes at %d of %d write partitions but is missing from partition %d at every live server",
				t.TxnID, t.Session, t.StepIdx, level, len(present), len(parts), q)
		}
	}
}

// tfBetween reports whether a total failure was stamped in (a, b): across
// such a point the broadcast sequence may have restarted, so freshness tokens
// on either side are not comparable.
func tfBetween(rec *RunRecord, a, b uint64) bool {
	for _, tf := range rec.TotalFailures {
		if tf > a && tf < b {
			return true
		}
	}
	return false
}

// checkFreshness checks the session-freshness claims: a floored query is
// never answered below its floor, and the freshness tokens of one session's
// committed updates are strictly monotone (each update is a distinct position
// in the total order, and the session submits them one at a time).  The
// monotonicity claim is scalar-only: a partitioned result's scalar token is
// the max over independent per-partition sequences, so two updates touching
// different partitions are legally non-monotone (checkFreshnessVec holds the
// per-partition claim instead).
func checkFreshness(rec *RunRecord, out *[]Violation) {
	for _, session := range rec.Sessions {
		var prev *TxnRec
		for _, t := range session {
			if !t.Acked {
				continue
			}
			if t.Floor > 0 && t.Freshness < t.Floor {
				violationf(out, "freshness-floor",
					"session %d txn %#x asked for freshness >= %d but was served token %d",
					t.Session, t.TxnID, t.Floor, t.Freshness)
			}
			if rec.Partitions == 1 && t.Committed() && t.Update() && t.Freshness > 0 {
				if prev != nil && !tfBetween(rec, prev.AckIdx, t.AckIdx) && t.Freshness <= prev.Freshness {
					violationf(out, "freshness-monotonic",
						"session %d: update %#x has token %d, not above the session's earlier update %#x at token %d",
						t.Session, t.TxnID, t.Freshness, prev.TxnID, prev.Freshness)
				}
				prev = t
			}
		}
	}
}

// checkFreshnessVec checks vector floors on partitioned runs: a query carrying
// a per-partition floor must be served, on every partition it actually read
// from, at or above that partition's floor entry (untouched partitions impose
// nothing — their vector entries stay zero).
func checkFreshnessVec(rec *RunRecord, out *[]Violation) {
	if rec.Partitions <= 1 {
		return
	}
	for _, t := range allTxns(rec) {
		if !t.Acked || len(t.FloorVec) == 0 {
			continue
		}
		for item := range t.ReadValues {
			if item >= rec.PMap.Items() {
				continue
			}
			p := rec.PMap.Owner(item)
			if p >= len(t.FloorVec) || t.FloorVec[p] == 0 {
				continue
			}
			served := uint64(0)
			if p < len(t.FreshnessVec) {
				served = t.FreshnessVec[p]
			}
			if served < t.FloorVec[p] {
				violationf(out, "freshness-floor",
					"session %d txn %#x read item %d from partition %d asking for freshness >= %d but was served token %d",
					t.Session, t.TxnID, item, p, t.FloorVec[p], served)
			}
		}
	}
}

// checkSessionRouting is the read scale-out claim: within one session, the
// freshness tokens served to FLOORED queries never move backwards — even as
// the freshness-aware router moves the session between replicas (crash,
// recovery, load), a later floored read is never handed an older snapshot
// than an earlier one.  Unfloored queries are exempt by design (they accept
// any snapshot and the session deliberately sends no floor), and on
// partitioned runs the comparison is per partition, only where both queries
// actually read (an untouched partition's vector entry stays zero and says
// nothing).  Runs containing a total failure are skipped entirely: the
// broadcast sequence may restart across it and the session loop resets its
// floor on a schedule the checker cannot reconstruct soundly.
func checkSessionRouting(rec *RunRecord, out *[]Violation) {
	if len(rec.TotalFailures) > 0 {
		return
	}
	for _, session := range rec.Sessions {
		var prev *TxnRec
		for _, t := range session {
			if !t.Acked || !t.Query || (t.Floor == 0 && len(t.FloorVec) == 0) {
				continue
			}
			if prev != nil {
				if rec.Partitions == 1 && t.Freshness < prev.Freshness {
					violationf(out, "session-routing",
						"session %d: floored query %#x (served by %s) returned token %d, below the session's earlier floored query %#x (served by %s) at token %d — the session travelled backwards in time across replicas",
						t.Session, t.TxnID, t.DelegateID, t.Freshness, prev.TxnID, prev.DelegateID, prev.Freshness)
				}
				for p, f := range prev.FreshnessVec {
					if f == 0 || p >= len(t.FreshnessVec) || t.FreshnessVec[p] == 0 {
						continue
					}
					if t.FreshnessVec[p] < f {
						violationf(out, "session-routing",
							"session %d: floored query %#x read partition %d at token %d, below the session's earlier floored query %#x at token %d",
							t.Session, t.TxnID, p, t.FreshnessVec[p], prev.TxnID, f)
					}
				}
			}
			prev = t
		}
	}
}

// checkTimeline validates every floored read value against the item's
// committed timeline: the value must be one the item actually held in some
// state at or after the query's token.  Needs the reference history (which
// also implies the run had no total failure, so tokens are comparable
// cluster-wide).  The check is per item on purpose: two live replicas may
// install disjoint transactions in different real-time order around the
// snapshot cut, so a cross-item prefix intersection would reject legal MVCC
// snapshots.
func checkTimeline(rec *RunRecord, out *[]Violation) {
	if rec.RefReplica < 0 || len(rec.RefLog) == 0 {
		return
	}
	type write struct {
		seq uint64
		val int64
	}
	timelines := make(map[int][]write)
	for _, e := range refHistory(rec) {
		t := rec.TxnByID[e.TxnID]
		if t == nil {
			return
		}
		for item, v := range t.Writes {
			timelines[item] = append(timelines[item], write{seq: e.Seq, val: v})
		}
	}
	for _, t := range allTxns(rec) {
		if !t.Acked || t.Floor == 0 {
			continue
		}
		token := t.Freshness
		for item, v := range t.ReadValues {
			tl := timelines[item]
			valid := false
			if v == 0 && (len(tl) == 0 || tl[0].seq > token) {
				valid = true // the initial value, still visible at the token
			}
			for k, w := range tl {
				if w.val != v {
					continue
				}
				if k == len(tl)-1 || tl[k+1].seq > token {
					valid = true // value held in [w.seq, next.seq), which reaches past the token
					break
				}
			}
			if !valid {
				violationf(out, "timeline",
					"session %d txn %#x read item %d = %d at token %d, but the committed timeline never holds that value at or after the token",
					t.Session, t.TxnID, item, v, token)
			}
		}
	}
}

// checkConvergence: after the rescue phase healed every fault and recovered
// every replica, the group-communication configurations must reach identical
// stores (delivery in one total order plus checkpoint state transfer leaves
// no legitimate way to stay apart).  The lazy levels (0-safe, 1-safe-lazy)
// are never asserted: they are update-everywhere, so conflicting commits at
// different delegates can legally diverge even on a fault-free run.
func checkConvergence(rec *RunRecord, out *[]Violation) {
	if !rec.Level.UsesGroupCommunication() {
		return
	}
	if !rec.Converged {
		violationf(out, "convergence",
			"live replicas did not converge after the rescue phase (level %v): %v",
			rec.Level, rec.ConvergeErr)
	}
}
