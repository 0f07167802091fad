package gsdb

// route is the one delegate-selection policy, shared by the in-process Client
// (pickDelegate) and the network RemoteClient (routeSlot).  It scans the n
// replicas once, round-robin from start, and never considers one for which
// skip reports true (crashed, or suspended from the rotation).  Among the
// rest it returns the least-loaded replica whose lag against the call's
// freshness floor is zero — one that can answer without waiting; when none
// qualifies, the least-lagging one, where waiting (or a redirect) is the
// fallback; and when every replica is skipped, start itself, so the caller
// still reaches somebody and gets a meaningful error.  Ties go to the first
// replica in scan order, which rotates with start, so equally idle replicas
// share the load.
//
// route is pure and allocation-free: the callbacks are only called, never
// retained, so a caller's closures stay on its stack.
func route(n, start int, skip func(int) bool, lag func(int) uint64, load func(int) int64) int {
	best, closest := -1, -1
	var bestLoad int64
	var closestLag uint64
	for k := 0; k < n; k++ {
		i := (start + k) % n
		if skip(i) {
			continue
		}
		g := lag(i)
		if closest < 0 || g < closestLag {
			closest, closestLag = i, g
		}
		if g > 0 {
			continue
		}
		if l := load(i); best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	switch {
	case best >= 0:
		return best
	case closest >= 0:
		return closest
	}
	return start
}
