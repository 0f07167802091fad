package gsdb

import (
	"context"
	"testing"
)

// TestRoutePolicy pins the one delegate-selection policy that both
// Client.pickDelegate and RemoteClient.routeSlot adapt.
func TestRoutePolicy(t *testing.T) {
	cases := []struct {
		name  string
		start int
		down  []bool
		lag   []uint64
		load  []int64
		want  int
	}{
		{"idle and fresh: the start slot", 1, []bool{false, false, false}, []uint64{0, 0, 0}, []int64{0, 0, 0}, 1},
		{"ties rotate with start", 2, []bool{false, false, false}, []uint64{0, 0, 0}, []int64{3, 3, 3}, 2},
		{"least loaded among the fresh", 0, []bool{false, false, false}, []uint64{0, 0, 0}, []int64{2, 1, 1}, 1},
		{"a lagging replica loses to a loaded fresh one", 0, []bool{false, false, false}, []uint64{4, 0, 0}, []int64{0, 9, 7}, 2},
		{"floor unmet everywhere: the least lagging", 0, []bool{false, false, false}, []uint64{9, 2, 5}, []int64{0, 7, 0}, 1},
		{"least-lagging ties rotate with start", 2, []bool{false, false, false}, []uint64{3, 3, 3}, []int64{0, 0, 0}, 2},
		{"a down replica is never picked, however idle", 0, []bool{true, false, false}, []uint64{0, 0, 0}, []int64{0, 5, 6}, 1},
		{"a down replica is never picked, however fresh", 0, []bool{true, false, true}, []uint64{0, 8, 0}, []int64{0, 0, 0}, 1},
		{"all down: the start slot", 2, []bool{true, true, true}, []uint64{0, 0, 0}, []int64{0, 0, 0}, 2},
		{"one replica", 0, []bool{false}, []uint64{7}, []int64{3}, 0},
	}
	for _, tc := range cases {
		skip := func(i int) bool { return tc.down[i] }
		lag := func(i int) uint64 { return tc.lag[i] }
		load := func(i int) int64 { return tc.load[i] }
		if got := route(len(tc.down), tc.start, skip, lag, load); got != tc.want {
			t.Errorf("%s: route = %d, want %d", tc.name, got, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			route(len(tc.down), tc.start, skip, lag, load)
		}); allocs != 0 {
			t.Errorf("%s: route allocates %v times per call, want 0", tc.name, allocs)
		}
	}
}

// floorRecorder is an executor that records the freshness floor each call
// would route and wait by, and answers with a fixed token.
type floorRecorder struct {
	token  uint64
	floors []uint64
}

func (f *floorRecorder) Execute(_ context.Context, _ Request, opts ...TxnOption) (Result, error) {
	f.floors = append(f.floors, newTxnOptions(opts).freshness)
	return Result{Outcome: OutcomeCommitted, Freshness: f.token}, nil
}

// TestSessionFloorIsALowerBound: a session call's floor is the larger of the
// session's token and the caller's own WithFreshness, never the smaller.
func TestSessionFloorIsALowerBound(t *testing.T) {
	exec := &floorRecorder{token: 50}
	s := &Session{exec: exec}
	ctx := context.Background()
	for _, opts := range [][]TxnOption{nil, {WithFreshness(1)}, {WithFreshness(70)}, nil} {
		if _, err := s.Execute(ctx, Query(1), opts...); err != nil {
			t.Fatal(err)
		}
	}
	want := []uint64{0, 50, 70, 50}
	for i := range want {
		if exec.floors[i] != want[i] {
			t.Fatalf("floors sent = %v, want %v", exec.floors, want)
		}
	}
}
