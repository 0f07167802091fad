package core

import "fmt"

// TechniqueID selects the replication technique a replica runs: the paper's
// certification-based database state machine, or the lazy primary-copy
// baseline it is measured against (Table 1, Fig. 9).  Both run behind the
// same client API, safety levels and crash model.
type TechniqueID int

const (
	// TechCertification is the certification-based database state machine
	// (the paper's own protocol, Sects. 2, 4, 5): optimistic execution at
	// the delegate, atomic broadcast of read versions + write set,
	// deterministic first-updater-wins certification at every replica.
	// Conflicting concurrent transactions abort.
	TechCertification TechniqueID = iota
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
	case TechLazyPrimary:
		return "lazy-primary"
	default:
		return fmt.Sprintf("technique(%d)", int(t))
	}
}

// AllTechniques lists every replication technique.
func AllTechniques() []TechniqueID {
	return []TechniqueID{TechCertification, TechLazyPrimary}
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

// CanonicalLevel validates a safety level against a technique and returns
// the level the technique actually runs: certification accepts every level
// unchanged; lazy primary-copy is pinned to 1-safe-lazy and rejects the
// group-communication levels.  ReplicaConfig defaulting applies this
// internally; external drivers (the simulator, cmd tools) call it so their
// rules can never drift from the real stack's.
func CanonicalLevel(tech TechniqueID, level SafetyLevel) (SafetyLevel, error) {
	switch tech {
	case TechCertification:
		return level, nil
	case TechLazyPrimary:
		if level.UsesGroupCommunication() {
			return 0, fmt.Errorf("core: lazy primary-copy does not use group communication; safety level %v is incompatible (the technique is 1-safe)", level)
		}
		// The technique is inherently 1-safe: the primary forces its commit
		// record before answering the client.  The 0-safe zero value is
		// canonicalised rather than kept, so Result.Level reports the
		// guarantee actually provided.
		return Safety1Lazy, nil
	default:
		return 0, fmt.Errorf("core: unknown replication technique %d", int(tech))
	}
}
