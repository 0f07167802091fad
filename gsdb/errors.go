package gsdb

import (
	"errors"

	"groupsafe/internal/core"
)

// The unified error taxonomy of the public API.  Every sentinel is
// errors.Is-able against the errors returned by Client and Commit methods;
// the engine-originated sentinels share identity with the engine's own, so
// matching works no matter how deep the wrapping.  Context expiries
// additionally keep their context sentinel: a deadline expiry matches BOTH
// ErrTimeout and context.DeadlineExceeded, a cancellation matches
// context.Canceled.
var (
	// ErrClosed is returned by Execute, Submit and WaitConsistent after
	// Close.  The inspection helpers (Value, Consistent, stats, crash
	// control) stay callable so post-mortem checks keep working.
	ErrClosed = errors.New("gsdb: client is closed")
	// ErrAborted is returned by Commit.Durable (and useful for callers'
	// own signalling) when the transaction did not commit — a certification
	// conflict, at the delegate alone on the lazy paths: there is nothing to
	// make durable.
	ErrAborted = errors.New("gsdb: transaction aborted")
	// ErrTimeout marks an Execute that gave up waiting for its notification
	// condition — a context deadline, or the default ExecTimeout.
	ErrTimeout = core.ErrTimeout
	// ErrCrashed is returned when the delegate replica is (or crashes
	// while) serving the transaction.
	ErrCrashed = core.ErrCrashed
	// ErrNotFound is returned for out-of-range replica indexes and for an
	// operation on an item outside the database.
	ErrNotFound = core.ErrNotFound
	// ErrSafetyUnavailable is returned when a WithSafety override asks for
	// a level this cluster's machinery cannot provide.
	ErrSafetyUnavailable = core.ErrSafetyUnavailable
	// ErrComputeNotReplicable is returned by RemoteClient.Execute for any
	// request carrying a Compute hook: closures cannot cross the network.
	// An in-process Client runs Compute hooks and never returns it.
	ErrComputeNotReplicable = core.ErrComputeNotReplicable
	// ErrReadOnlyWrites is returned when a request declared ReadOnly
	// carries a write operation (or a Compute hook, which could emit one).
	ErrReadOnlyWrites = core.ErrReadOnlyWrites
)
