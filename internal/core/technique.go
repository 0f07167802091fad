package core

import (
	"context"
	"fmt"
)

// TechniqueID selects the replication technique a replica runs.  The paper's
// companion line of work (Wiesmann & Schiper, "Comparison of database
// replication techniques based on total order broadcast") compares these
// head to head; the engine in this package runs any of them behind the same
// client API, safety levels and crash model.
type TechniqueID int

const (
	// TechCertification is the certification-based database state machine
	// (the paper's own protocol, Sects. 2, 4, 5): optimistic execution at
	// the delegate, atomic broadcast of read versions + write set,
	// deterministic first-updater-wins certification at every replica.
	// Conflicting concurrent transactions abort.
	TechCertification TechniqueID = iota
	// TechActive is active replication (state machine replication proper):
	// the delegate broadcasts the whole deterministic operation list and
	// every replica executes it in total order.  No certification and zero
	// aborts, at the price of executing every transaction's reads and
	// writes on every replica (higher CPU).
	TechActive
	// TechLazyPrimary is lazy primary-copy replication (1-safe): update
	// transactions execute only at the primary (the first member), which
	// commits and answers the client after forcing its own log, then ships
	// the write set asynchronously off the response path.  Read-only
	// transactions may run at any replica against possibly-stale state.
	// A primary crash can lose acknowledged transactions — the 1-safe
	// window the paper's group-safety closes.
	TechLazyPrimary
)

// String implements fmt.Stringer.
func (t TechniqueID) String() string {
	switch t {
	case TechCertification:
		return "certification"
	case TechActive:
		return "active"
	case TechLazyPrimary:
		return "lazy-primary"
	default:
		return fmt.Sprintf("technique(%d)", int(t))
	}
}

// AllTechniques lists every replication technique.
func AllTechniques() []TechniqueID {
	return []TechniqueID{TechCertification, TechActive, TechLazyPrimary}
}

// ParseTechnique resolves a technique name (as printed by String).
func ParseTechnique(s string) (TechniqueID, error) {
	for _, t := range AllTechniques() {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("core: unknown replication technique %q", s)
}

// Technique is the replication technique plugged into the replica engine.
// The engine owns everything technique-independent — lifecycle and crash
// model, the group communication stack, the ordered-delivery drain loops,
// durability forcing, and client notification plumbing — while the technique
// decides what is broadcast, how a delivered message commits, and where the
// client is notified.
//
// The interface is sealed (unexported methods): the three implementations in
// technique_cert.go, technique_active.go and technique_lazy.go are selected
// by TechniqueID, and every future technique (weak voting, sharded groups,
// ...) lands as another file beside them.
type Technique interface {
	// ID returns the technique's identifier.
	ID() TechniqueID

	// usesGroupComm reports whether the technique submits client
	// transactions through the atomic broadcast at the given safety level
	// (deciding whether the engine builds a broadcaster and apply loop).
	usesGroupComm(level SafetyLevel) bool

	// checkLevel validates (and may canonicalise) the configured safety
	// level for this technique; called once from ReplicaConfig defaulting.
	checkLevel(level SafetyLevel) (SafetyLevel, error)

	// execute runs one client transaction with r as the delegate and
	// returns when the notification condition of the transaction's
	// effective safety level holds, or when ctx is done.
	execute(ctx context.Context, r *Replica, req Request) (Result, error)

	// applyBatch processes one drained batch of totally-ordered deliveries
	// on the apply goroutine: decode, commit/abort decision, WAL staging,
	// store install and the single batch force, then externalisation via
	// r.externalize.  Only called when usesGroupComm is true.
	applyBatch(r *Replica, st *applyState, batch []applyItem)
}

// CanonicalLevel validates a safety level against a technique and returns
// the level the technique actually runs: certification accepts every level
// unchanged; active replication promotes the zero level to group-safe and
// rejects the lazy level; lazy primary-copy is pinned to 1-safe-lazy and
// rejects the group-communication levels.  ReplicaConfig defaulting applies
// this internally; external drivers (the simulator, cmd tools) call it so
// their rules can never drift from the real stack's.
func CanonicalLevel(tech TechniqueID, level SafetyLevel) (SafetyLevel, error) {
	t, err := techniqueFor(tech)
	if err != nil {
		return 0, err
	}
	return t.checkLevel(level)
}

// techniqueFor returns the implementation of the given technique.
// Implementations are stateless (all state lives in the Replica and the
// apply goroutine's applyState), so the shared instances are safe to reuse.
func techniqueFor(id TechniqueID) (Technique, error) {
	switch id {
	case TechCertification:
		return certTechnique{}, nil
	case TechActive:
		return activeTechnique{}, nil
	case TechLazyPrimary:
		return lazyPrimaryTechnique{}, nil
	default:
		return nil, fmt.Errorf("core: unknown replication technique %d", int(id))
	}
}
