// Package experiments exposes the paper's Fig. 5 and Fig. 7 crash schedules
// on the real replication stack: the same total failure loses an
// acknowledged transaction under classical atomic broadcast and keeps it
// under end-to-end atomic broadcast.  It is the public face of the module's
// internal experiments package for the failover example.
package experiments

import iexp "groupsafe/internal/experiments"

// FailureScenarioResult describes the outcome of a Fig. 5 / Fig. 7 style
// crash schedule.
type FailureScenarioResult = iexp.FailureScenarioResult

// RunFigure5 reproduces Fig. 5: classical atomic broadcast loses an
// acknowledged transaction after a total failure in which only the
// non-delegates recover.
func RunFigure5() (FailureScenarioResult, error) { return iexp.RunFigure5() }

// RunFigure7 reproduces Fig. 7: the same schedule on end-to-end atomic
// broadcast (2-safe) replays the logged message and the transaction
// survives.
func RunFigure7() (FailureScenarioResult, error) { return iexp.RunFigure7() }
