package simrep

import (
	"context"
	"testing"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/wal"
	"groupsafe/internal/workload"
)

// TestResponseForcesMatchEngine ties each simulated flow to the engine by
// count, so it holds on any host: the number of log forces the delegate pays
// before it answers the client must be the same in the simulator and in
// core.Cluster.
func TestResponseForcesMatchEngine(t *testing.T) {
	want := map[core.SafetyLevel]uint64{core.GroupSafe: 0, core.Group1Safe: 1, core.Safety1Lazy: 1}
	for _, level := range Figure9Levels() {
		engine := engineResponseForces(t, level)
		simulated := simulatedResponseForces(t, level)
		if engine != want[level] {
			t.Errorf("%v: the engine's delegate forced its log %d times before answering, want %d", level, engine, want[level])
		}
		if simulated != engine {
			t.Errorf("%v: the simulated flow charges %d forces on the response path, the engine %d", level, simulated, engine)
		}
	}
}

// engineResponseForces runs one update through a 3-replica cluster over the
// in-memory network and counts the delegate's log forces until Execute
// returns.  Counting starts after each replica's start-of-life id mark force.
func engineResponseForces(t *testing.T, level core.SafetyLevel) uint64 {
	t.Helper()
	c, err := core.NewCluster(core.ClusterConfig{Replicas: 3, Items: 64, Level: level, ExecTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	log := c.Replica(0).DB().Log().(*wal.MemLog)
	start := log.Syncs()
	res, err := c.Execute(context.Background(), 0, core.Request{Ops: []workload.Op{{Item: 1}, {Item: 2, Write: true, Value: 7}}})
	forces := log.Syncs() - start
	if err != nil || !res.Committed() {
		t.Fatalf("%v: %+v, %v", level, res, err)
	}
	return forces
}

// simulatedResponseForces runs the simulated flow with every cost zero but a
// fixed-length disk access, and every page in the buffer, so the only disk
// accesses a client waits for are the flow's forces: the mean response time
// is the forces per transaction times one access.  At 1 tps over 9 servers
// no two transactions meet on a resource or in certification.
func simulatedResponseForces(t *testing.T, level core.SafetyLevel) uint64 {
	t.Helper()
	const access = 10 * time.Millisecond
	cfg := DefaultConfig()
	cfg.Duration = 20 * time.Second
	cfg.WarmupFraction = 0
	cfg.BufferHitRatio = 1
	cfg.DiskAccessMin, cfg.DiskAccessMax = access, access
	cfg.CPUPerIO, cfg.CPUPerNetworkOp, cfg.CertifyCPU, cfg.NetworkDelay = 0, 0, 0, 0
	res, err := Run(cfg, level, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 5 || res.Aborted != 0 {
		t.Fatalf("%v: %d transactions, %d aborted: want several, none aborted", level, res.Completed, res.Aborted)
	}
	perAccess := res.ResponseMeanMs / float64(access/time.Millisecond)
	forces := uint64(perAccess + 0.5)
	if d := perAccess - float64(forces); d > 1e-9 || d < -1e-9 {
		t.Fatalf("%v: mean response %.3f ms is not a whole number of %v forces", level, res.ResponseMeanMs, access)
	}
	return forces
}
