// Package groupsafe contains the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see EXPERIMENTS.md for the
// experiment index and DESIGN.md for the system inventory).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the reproduced data as b.ReportMetric custom metrics
// and (for the figures) relies on the cmd/gsdb-sim and cmd/gsdb-safety tools
// for the full human-readable tables.
package groupsafe

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"groupsafe/internal/apply"
	"groupsafe/internal/core"
	"groupsafe/internal/db"
	"groupsafe/internal/experiments"
	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/gcs/transport"
	"groupsafe/internal/simrep"
	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
	"groupsafe/internal/workload"
)

// benchSimConfig keeps the simulated runs short enough for a benchmark
// iteration while preserving the Table 4 resource model.
func benchSimConfig() simrep.Config {
	cfg := simrep.DefaultConfig()
	cfg.Duration = 20 * time.Second
	return cfg
}

// benchmarkFigure9Point runs one (technique, load) point of Fig. 9 per
// iteration and reports the measured response time and abort rate.
func benchmarkFigure9Point(b *testing.B, level core.SafetyLevel, load float64) {
	b.Helper()
	cfg := benchSimConfig()
	var last simrep.Result
	for i := 0; i < b.N; i++ {
		r, err := simrep.Run(cfg, level, load)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ResponseMeanMs, "response-ms")
	b.ReportMetric(last.ResponseP95Ms, "p95-ms")
	b.ReportMetric(100*last.AbortRate, "abort-%")
	b.ReportMetric(last.ThroughputTPS, "tps")
}

// BenchmarkFigure9 regenerates the three curves of Fig. 9 (response time vs
// load for group-safe, lazy/1-safe and group-1-safe replication) at the left
// edge, the middle and the right edge of the paper's load axis.
func BenchmarkFigure9(b *testing.B) {
	for _, level := range simrep.Figure9Levels() {
		for _, load := range []float64{20, 30, 40} {
			b.Run(level.String()+"/load-"+itoa(int(load)), func(b *testing.B) {
				benchmarkFigure9Point(b, level, load)
			})
		}
	}
}

// BenchmarkFigure9Extensions covers the levels the paper discusses but does
// not plot (0-safe, 2-safe, very-safe) as an ablation of the safety/latency
// trade-off.
func BenchmarkFigure9Extensions(b *testing.B) {
	for _, level := range []core.SafetyLevel{core.Safety0, core.Safety2, core.VerySafe} {
		b.Run(level.String(), func(b *testing.B) {
			benchmarkFigure9Point(b, level, 20)
		})
	}
}

// BenchmarkTable1SafetyMatrix regenerates the Table 1 classification.
func BenchmarkTable1SafetyMatrix(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunTable1(9)
	}
	b.ReportMetric(float64(len(rows)), "levels")
}

// BenchmarkTable2CrashTolerance runs the operational crash-tolerance matrix
// of Table 2 (delegate crash, minority crash, total failure for every level).
func BenchmarkTable2CrashTolerance(b *testing.B) {
	lost := 0
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2(3)
		if err != nil {
			b.Fatal(err)
		}
		lost = 0
		for _, r := range rows {
			if r.LostAfterDelegate {
				lost++
			}
			if r.LostAfterTotalFail {
				lost++
			}
		}
	}
	b.ReportMetric(float64(lost), "loss-scenarios")
}

// BenchmarkTable3LossConditions runs the group-safe versus group-1-safe loss
// matrix of Table 3.
func BenchmarkTable3LossConditions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5LostTransaction replays the unrecoverable-failure scenario
// of Fig. 5 (classical atomic broadcast loses an acknowledged transaction).
func BenchmarkFigure5LostTransaction(b *testing.B) {
	lost := 0.0
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5()
		if err != nil {
			b.Fatal(err)
		}
		if res.TransactionLost {
			lost = 1
		}
	}
	b.ReportMetric(lost, "transaction-lost")
}

// BenchmarkFigure7EndToEndRecovery replays the same schedule on end-to-end
// atomic broadcast (the transaction survives).
func BenchmarkFigure7EndToEndRecovery(b *testing.B) {
	lost := 0.0
	replayed := 0.0
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7()
		if err != nil {
			b.Fatal(err)
		}
		if res.TransactionLost {
			lost = 1
		}
		replayed = float64(res.ReplayedMessages)
	}
	b.ReportMetric(lost, "transaction-lost")
	b.ReportMetric(replayed, "replayed-msgs")
}

// BenchmarkFigure2vs8Breakdown measures the single-transaction response-time
// difference between the Fig. 2 (group-1-safe) and Fig. 8 (group-safe)
// protocol variants on the real stack.
func BenchmarkFigure2vs8Breakdown(b *testing.B) {
	var res experiments.TraceResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFig2VsFig8Trace(8*time.Millisecond, 70*time.Microsecond, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Group1SafeResponse)/1e6, "group1safe-ms")
	b.ReportMetric(float64(res.GroupSafeResponse)/1e6, "groupsafe-ms")
	b.ReportMetric(float64(res.ResponseTimeSavings)/1e6, "savings-ms")
}

// BenchmarkDiskVsBroadcast quantifies the Sect. 6 claim that an atomic
// broadcast (~1 ms) is much cheaper than a disk force (~8 ms).
func BenchmarkDiskVsBroadcast(b *testing.B) {
	var res experiments.DiskVsBroadcastResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunDiskVsBroadcast(8*time.Millisecond, 70*time.Microsecond, 9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DiskForce)/1e6, "disk-ms")
	b.ReportMetric(float64(res.AtomicBroadcast)/1e6, "abcast-ms")
	b.ReportMetric(res.Ratio, "ratio")
}

// BenchmarkSection7Scaling evaluates the Sect. 7 argument (ACID-violation
// probability versus the number of servers for lazy and group-safe).
func BenchmarkSection7Scaling(b *testing.B) {
	var points []experiments.ScalingPoint
	for i := 0; i < b.N; i++ {
		points = experiments.RunSection7Scaling(experiments.ScalingConfig{Trials: 10000})
	}
	first, last := points[0], points[len(points)-1]
	b.ReportMetric(last.LazyViolationProb-first.LazyViolationProb, "lazy-growth")
	b.ReportMetric(first.GroupSafeViolateProb-last.GroupSafeViolateProb, "groupsafe-drop")
}

// --- substrate micro-benchmarks (ablation of the building blocks) ---

// BenchmarkAtomicBroadcast measures the end-to-end latency of one uniform
// atomic broadcast over a 9-member in-memory group.
func BenchmarkAtomicBroadcast(b *testing.B) {
	network := transport.NewMemNetwork()
	members := make([]string, 9)
	for i := range members {
		members[i] = "n" + itoa(i)
	}
	type node struct {
		router *gcs.Router
		bc     *abcast.Broadcaster
	}
	nodes := make([]*node, len(members))
	for i, m := range members {
		router := gcs.NewRouter(network.Endpoint(m))
		bc, err := abcast.New(abcast.Config{Self: m, Members: members}, router)
		if err != nil {
			b.Fatal(err)
		}
		router.Start()
		nodes[i] = &node{router: router, bc: bc}
	}
	defer func() {
		for _, n := range nodes {
			n.bc.Close()
			n.router.Stop()
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nodes[0].bc.Broadcast([]byte("bench")); err != nil {
			b.Fatal(err)
		}
		<-nodes[0].bc.Deliveries()
	}
	b.StopTimer()
	for _, n := range nodes[1:] {
		for len(n.bc.Deliveries()) > 0 {
			<-n.bc.Deliveries()
		}
	}
}

// BenchmarkAbcastBatching measures uniform atomic broadcast throughput under
// 32 concurrent producers, reporting the per-broadcast protocol message count
// (one round per message costs n DATA + n ORDER + n*n ACK sends; the lane's
// ranges cut that toward 1/B of it) and the achieved mean batch size.
func BenchmarkAbcastBatching(b *testing.B) {
	network := transport.NewMemNetwork()
	members := make([]string, 5)
	for i := range members {
		members[i] = "n" + itoa(i)
	}
	type node struct {
		router *gcs.Router
		bc     *abcast.Broadcaster
	}
	nodes := make([]*node, len(members))
	for i, m := range members {
		router := gcs.NewRouter(network.Endpoint(m))
		bc, err := abcast.New(abcast.Config{Self: m, Members: members}, router)
		if err != nil {
			b.Fatal(err)
		}
		router.Start()
		nodes[i] = &node{router: router, bc: bc}
	}
	stop := make(chan struct{})
	defer func() {
		close(stop)
		for _, n := range nodes {
			n.bc.Close()
			n.router.Stop()
		}
	}()

	// Node 0 counts deliveries; the other members drain in the background.
	// The producers run under a bounded in-flight window (released as node 0
	// delivers): the in-memory transport drops on inbox overflow and the
	// broadcast has no retransmission, so clients must apply backpressure —
	// exactly like the replica layer, where every client waits for its
	// transaction outcome.
	const window = 256
	inflight := make(chan struct{}, window)
	delivered := make(chan struct{})
	go func() {
		for i := 0; i < b.N; i++ {
			<-nodes[0].bc.Deliveries()
			<-inflight
		}
		close(delivered)
	}()
	for _, n := range nodes[1:] {
		n := n
		go func() {
			for {
				select {
				case <-n.bc.Deliveries():
				case <-stop:
					return
				}
			}
		}()
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next int64
	const producers = 32
	errCh := make(chan error, producers)
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		sender := nodes[g%len(nodes)].bc
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if atomic.AddInt64(&next, 1) > int64(b.N) {
					return
				}
				inflight <- struct{}{}
				if _, err := sender.Broadcast([]byte("bench")); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-delivered:
	case err := <-errCh:
		// A failed producer means the delivery count can never be reached;
		// fail instead of waiting forever.
		b.Fatal(err)
	}
	b.StopTimer()

	var sent, bcasts, batches uint64
	for _, n := range nodes {
		st := n.bc.Stats()
		sent += st.MsgsSent
		bcasts += st.Broadcast
		batches += st.DataBatches
	}
	b.ReportMetric(float64(sent)/float64(b.N), "msgs/txn")
	if batches > 0 {
		b.ReportMetric(float64(bcasts)/float64(batches), "batch-size")
	}
}

// benchmarkLatencySweep runs one load point of the latency-versus-throughput
// sweep: each operation broadcasts and waits for its own message's
// delivery, so per-op latency is the real broadcast-to-delivery time under
// that offered load.  The load shape comes from the shared harness
// (bench_load_test.go): closed-loop client counts or an open-loop Poisson
// arrival rate.  Reported metrics: p50/p99 latency, protocol messages per
// broadcast, and the sequencer's inbound messages per broadcast (the
// ACK-coalescing win).
func benchmarkLatencySweep(b *testing.B, mode loadMode) {
	network := transport.NewMemNetwork()
	members := make([]string, 5)
	for i := range members {
		members[i] = "n" + itoa(i)
	}
	type node struct {
		router *gcs.Router
		bc     *abcast.Broadcaster
	}
	nodes := make([]*node, len(members))
	for i, m := range members {
		router := gcs.NewRouter(network.Endpoint(m))
		bc, err := abcast.New(abcast.Config{Self: m, Members: members}, router)
		if err != nil {
			b.Fatal(err)
		}
		router.Start()
		nodes[i] = &node{router: router, bc: bc}
	}
	stop := make(chan struct{})
	defer func() {
		close(stop)
		for _, n := range nodes {
			n.bc.Close()
			n.router.Stop()
		}
	}()

	// Node 0 dispatches deliveries to per-message waiters; the other members
	// drain in the background.  A delivery can land before its producer has
	// registered (the id is only known once Broadcast returns), so those are
	// parked in `delivered` for the producer to claim.
	var mu sync.Mutex
	waiters := make(map[string]chan struct{})
	delivered := make(map[string]bool)
	go func() {
		for {
			select {
			case d := <-nodes[0].bc.Deliveries():
				mu.Lock()
				if ch, ok := waiters[d.MsgID]; ok {
					delete(waiters, d.MsgID)
					close(ch)
				} else {
					delivered[d.MsgID] = true
				}
				mu.Unlock()
			case <-stop:
				return
			}
		}
	}()
	for _, n := range nodes[1:] {
		n := n
		go func() {
			for {
				select {
				case <-n.bc.Deliveries():
				case <-stop:
					return
				}
			}
		}()
	}

	op := func(g int) error {
		sender := nodes[g%len(nodes)].bc
		done := make(chan struct{})
		id, err := sender.Broadcast([]byte("sweep"))
		if err != nil {
			return err
		}
		mu.Lock()
		if delivered[id] {
			delete(delivered, id)
			mu.Unlock()
			return nil
		}
		waiters[id] = done
		mu.Unlock()
		<-done
		return nil
	}

	b.ResetTimer()
	all := mode.run(b, op)
	b.StopTimer()
	reportLatencyDistribution(b, all)

	var sent uint64
	for _, n := range nodes {
		sent += n.bc.Stats().MsgsSent
	}
	b.ReportMetric(float64(sent)/float64(b.N), "msgs/txn")
	// Every protocol message fans out to all members, so the sequencer's
	// inbound count is the total sent divided by the group size.
	b.ReportMetric(float64(sent)/float64(len(members))/float64(b.N), "seq-in/txn")
}

// BenchmarkLatencyThroughputSweep sweeps the ordered-update lane over
// closed-loop producer counts: idle-send latency at low load, batching
// efficiency at high load.  CI uploads the output as the bench-sweep
// artifact; compare the p50/p99 columns per load point between commits.
func BenchmarkLatencyThroughputSweep(b *testing.B) {
	for _, producers := range []int{1, 4, 32} {
		producers := producers
		b.Run("load-"+itoa(producers), func(b *testing.B) {
			benchmarkLatencySweep(b, closedLoop(producers))
		})
	}
}

// BenchmarkLatencyThroughputSweepOpenLoop is the open-loop companion of the
// sweep above: Poisson arrivals at fixed offered rates instead of closed-loop
// clients, so a lane that falls behind shows the backlog as p99 latency
// rather than silently slowing the offered load (coordinated omission).  Same
// harness, same metrics.
func BenchmarkLatencyThroughputSweepOpenLoop(b *testing.B) {
	for _, mean := range []time.Duration{500 * time.Microsecond, 100 * time.Microsecond} {
		mean := mean
		b.Run(openLoop(mean).name(), func(b *testing.B) {
			benchmarkLatencySweep(b, openLoop(mean))
		})
	}
}

// benchmarkBatchedReplication measures full-stack replicated transaction
// throughput (optimistic execution, batched atomic broadcast, certification,
// batched apply with one force per batch, conflict-scheduled parallel
// install when applyWorkers > 1) with concurrent clients.
func benchmarkBatchedReplication(b *testing.B, level core.SafetyLevel, applyWorkers int) {
	cluster, err := core.NewCluster(core.ClusterConfig{
		Replicas:      3,
		Items:         8192,
		Level:         level,
		DiskSyncDelay: 100 * time.Microsecond,
		ApplyWorkers:  applyWorkers,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()

	var clientSeq uint64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seed := atomic.AddUint64(&clientSeq, 1)
		delegate := int(seed) % cluster.Size()
		gen := workload.NewGenerator(workload.Config{Items: 8192, MinOps: 2, MaxOps: 4, WriteProb: 0.5}, int64(seed))
		for pb.Next() {
			if _, err := cluster.Execute(context.Background(), delegate, core.RequestFromWorkload(gen.Next(0, delegate))); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()

	var sent uint64
	for _, r := range cluster.Replicas() {
		sent += r.BroadcastStats().MsgsSent
	}
	b.ReportMetric(float64(sent)/float64(b.N), "msgs/txn")
}

// BenchmarkBatchedReplication runs the batched pipeline at every
// group-communication safety level; for the forcing levels the batched apply
// loop additionally amortises the commit force.  Each level also runs with a
// 4-worker parallel apply stage (the workers-4 variants need >= 4 cores to
// show their speed-up; on fewer cores they bound the scheduler overhead
// instead).
func BenchmarkBatchedReplication(b *testing.B) {
	for _, level := range []core.SafetyLevel{core.GroupSafe, core.Group1Safe, core.Safety2} {
		for _, workers := range []int{1, 4} {
			b.Run(level.String()+"/workers-"+itoa(workers), func(b *testing.B) {
				benchmarkBatchedReplication(b, level, workers)
			})
		}
	}
}

// benchmarkParallelApply measures the apply stage in isolation: batches of
// pre-staged, low-conflict write sets installed through the conflict-graph
// scheduler at a given worker count.  It reports allocations to pin the
// zero-allocation claim of the install path (the scheduler reuses its graph
// buffers; the only steady-state allocations are the per-batch worker
// goroutines).
func benchmarkParallelApply(b *testing.B, workers int) {
	const (
		items     = 10000 // Table 4 database size
		batchTxns = 256   // maxApplyBatch
		writesPer = 16
	)
	store := storage.NewStore(items)
	sched := apply.New(workers)
	// Pre-generate a handful of low-conflict batches (distinct pseudo-random
	// items per write set), reused round-robin.
	rng := rand.New(rand.NewSource(1))
	batches := make([][][]storage.Write, 8)
	for bi := range batches {
		tasks := make([][]storage.Write, batchTxns)
		for ti := range tasks {
			ws := make([]storage.Write, 0, writesPer)
			used := make(map[int]bool, writesPer)
			for len(ws) < writesPer {
				item := rng.Intn(items)
				if used[item] {
					continue
				}
				used[item] = true
				ws = append(ws, storage.Write{Item: item, Value: int64(ti)})
			}
			sort.Slice(ws, func(i, j int) bool { return ws[i].Item < ws[j].Item })
			tasks[ti] = ws
		}
		batches[bi] = tasks
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tasks := batches[i%len(batches)]
		if err := sched.Run(tasks, func(t int) error {
			return store.ApplyWrites(tasks[t])
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(batchTxns), "txns/batch")
}

// BenchmarkParallelApply compares the conflict-scheduled apply stage at
// worker counts 1, 4 and 16 on one drained batch of low-conflict write sets
// (the intra-batch parallelism the total order permits).
func BenchmarkParallelApply(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			benchmarkParallelApply(b, workers)
		})
	}
}

// BenchmarkLocalCommitSync measures a forced local commit (the cost the
// group-safe level removes from the response path).
func BenchmarkLocalCommitSync(b *testing.B) {
	d, err := db.Open(db.Config{Items: 1024, Policy: db.SyncOnCommit})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn, err := d.Begin(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := txn.Write(i%1024, int64(i)); err != nil {
			b.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyWriteSet measures the remote apply path (certified write-set
// installation with exactly-once bookkeeping).
func BenchmarkApplyWriteSet(b *testing.B) {
	d, err := db.Open(db.Config{Items: 4096, Policy: db.AsyncCommit})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ws := storage.WriteSet{1: 10, 2: 20, 3: 30, 4: 40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ApplyWriteSet(uint64(i+1), ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend measures raw write-ahead-log append throughput.
func BenchmarkWALAppend(b *testing.B) {
	log := wal.NewMemLog()
	rec := wal.Record{Kind: wal.KindUpdate, TxnID: 1, Item: 2, Value: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicatedTransaction measures one full group-safe transaction on
// the real three-replica stack (optimistic execution, atomic broadcast,
// certification, apply).
func BenchmarkReplicatedTransaction(b *testing.B) {
	cluster, err := core.NewCluster(core.ClusterConfig{Replicas: 3, Items: 4096, Level: core.GroupSafe})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	gen := workload.NewGenerator(workload.Config{Items: 4096, MinOps: 5, MaxOps: 10, WriteProb: 0.5}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Execute(context.Background(), i%3, core.RequestFromWorkload(gen.Next(0, i%3))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadGenerator measures Table 4 transaction generation.
func BenchmarkWorkloadGenerator(b *testing.B) {
	gen := workload.NewGenerator(workload.DefaultConfig(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Next(0, i%9)
	}
}

// itoa avoids importing strconv just for benchmark names.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

// benchmarkQueryVsUpdate measures one transaction class in isolation on the
// full three-replica stack: "query" drives read-only snapshot transactions
// (broadcast-free local path), "update" drives single-write transactions
// through the total order.  The ns/op gap is the read path's win.
func benchmarkQueryVsUpdate(b *testing.B, readOnly bool) {
	cluster, err := core.NewCluster(core.ClusterConfig{
		Replicas:      3,
		Items:         8192,
		Level:         core.GroupSafe,
		DiskSyncDelay: 100 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	// Warm the stores so queries read real data.
	for i := 0; i < 64; i++ {
		if _, err := cluster.Execute(context.Background(), i%3, core.Request{
			Ops: []workload.Op{{Item: i, Write: true, Value: int64(i)}},
		}); err != nil {
			b.Fatal(err)
		}
	}

	sentBefore := uint64(0)
	for _, r := range cluster.Replicas() {
		sentBefore += r.BroadcastStats().MsgsSent
	}

	var clientSeq uint64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seed := atomic.AddUint64(&clientSeq, 1)
		delegate := int(seed) % cluster.Size()
		i := 0
		for pb.Next() {
			i++
			var req core.Request
			if readOnly {
				req = core.Request{ReadOnly: true, Ops: []workload.Op{
					{Item: (i * 31) % 8192}, {Item: (i*31 + 1) % 8192}, {Item: (i*31 + 2) % 8192},
				}}
			} else {
				req = core.Request{Ops: []workload.Op{
					{Item: (i * 31) % 8192, Write: true, Value: int64(i)},
				}}
			}
			if _, err := cluster.Execute(context.Background(), delegate, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()

	var sent uint64
	for _, r := range cluster.Replicas() {
		sent += r.BroadcastStats().MsgsSent
	}
	b.ReportMetric(float64(sent-sentBefore)/float64(b.N), "msgs/txn")
	b.ReportMetric(float64(cluster.TotalStats().Queries), "queries")
}

// BenchmarkQueryVsUpdate compares the broadcast-free snapshot read path with
// the totally-ordered update path on the same cluster configuration.
func BenchmarkQueryVsUpdate(b *testing.B) {
	b.Run("query", func(b *testing.B) { benchmarkQueryVsUpdate(b, true) })
	b.Run("update", func(b *testing.B) { benchmarkQueryVsUpdate(b, false) })
}

// benchmarkReadMix drives the full stack with the workload generator's
// read-mix knob at a given read fraction and reports wire cost per
// transaction plus the achieved class split.
func benchmarkReadMix(b *testing.B, readFraction float64) {
	cluster, err := core.NewCluster(core.ClusterConfig{
		Replicas:      3,
		Items:         8192,
		Level:         core.GroupSafe,
		DiskSyncDelay: 100 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()

	var clientSeq uint64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seed := atomic.AddUint64(&clientSeq, 1)
		delegate := int(seed) % cluster.Size()
		gen := workload.NewGenerator(workload.Config{
			Items: 8192, MinOps: 2, MaxOps: 4, WriteProb: 0.5,
			ReadFraction: readFraction, QueryMinOps: 2, QueryMaxOps: 4,
		}, int64(seed))
		for pb.Next() {
			if _, err := cluster.Execute(context.Background(), delegate, core.RequestFromWorkload(gen.Next(0, delegate))); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()

	var sent uint64
	for _, r := range cluster.Replicas() {
		sent += r.BroadcastStats().MsgsSent
	}
	total := cluster.TotalStats()
	b.ReportMetric(float64(sent)/float64(b.N), "msgs/txn")
	if total.Executed > 0 {
		b.ReportMetric(100*float64(total.Queries)/float64(total.Executed), "query-%")
	}
}

// BenchmarkReadMix sweeps the query/update mix from the paper's write-heavy
// Table 4 character to a read-heavy 90/10 web mix: wire cost per transaction
// falls with the read fraction because queries never touch the broadcast.
func BenchmarkReadMix(b *testing.B) {
	b.Run("reads-0", func(b *testing.B) { benchmarkReadMix(b, 0) })
	b.Run("reads-50", func(b *testing.B) { benchmarkReadMix(b, 0.5) })
	b.Run("reads-90", func(b *testing.B) { benchmarkReadMix(b, 0.9) })
}

// benchmarkReadScalingReal drives a pure-query closed loop against the real
// stack at a given cluster size: every client reads three items from its
// delegate's local MVCC snapshot, clients spread round-robin over the
// replicas, and the reported reads/sec is the aggregate snapshot-read rate.
// Queries never touch the broadcast, so each replica added is an independent
// read server and throughput scales with the replica count — on a host with
// enough cores to run the replicas concurrently.  (On a single-core host the
// replicas time-share one CPU and the wall-clock ratio flattens toward 1; the
// companion model variant below shows the scaling in virtual time on any
// host, and CI runs this one on the multicore runner.)
func benchmarkReadScalingReal(b *testing.B, replicas int) {
	cluster, err := core.NewCluster(core.ClusterConfig{
		Replicas: replicas,
		Items:    8192,
		Level:    core.GroupSafe,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	// Warm the stores so queries read installed data, and give every replica
	// time to apply the last write before the clock starts.
	var last core.Result
	for i := 0; i < 64; i++ {
		res, err := cluster.Execute(context.Background(), i%replicas, core.Request{
			Ops: []workload.Op{{Item: i, Write: true, Value: int64(i)}},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for i := 0; i < replicas; i++ {
		for deadline := time.Now().Add(2 * time.Second); cluster.Replica(i).LastAppliedSeq() < last.Freshness; {
			if time.Now().After(deadline) {
				b.Fatalf("replica %d never warmed up", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var clientSeq uint64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seed := atomic.AddUint64(&clientSeq, 1)
		delegate := int(seed) % replicas
		i := 0
		for pb.Next() {
			i++
			req := core.Request{ReadOnly: true, Ops: []workload.Op{
				{Item: (i * 31) % 8192}, {Item: (i*31 + 1) % 8192}, {Item: (i*31 + 2) % 8192},
			}}
			if _, err := cluster.Execute(context.Background(), delegate, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/sec")
}

// benchmarkReadScalingModel runs the paper's simulator at a saturating
// offered load with a 95% read mix and reports the virtual-time throughput:
// the model charges every query to its delegate's own CPUs and disks and
// nothing else, so completed work per simulated second grows with the server
// count no matter how many host cores execute the simulation.  This is the
// portable form of the read scale-out claim (the simulator floor is 3
// servers, so the sweep runs 3/6/12 — the ratio per doubling is the figure
// of merit).
func benchmarkReadScalingModel(b *testing.B, servers int) {
	cfg := benchSimConfig()
	cfg.Servers = servers
	cfg.ClientsPerServer = 8
	cfg.ReadFraction = 0.95
	cfg.QueryMinOps = 2
	cfg.QueryMaxOps = 4
	cfg.MinOps = 2
	cfg.MaxOps = 4
	cfg.Duration = 5 * time.Second
	var last simrep.Result
	for i := 0; i < b.N; i++ {
		// Offered load above every sweep point's capacity: the measured
		// throughput is the cluster's saturated completion rate, not the
		// arrival rate.
		r, err := simrep.Run(cfg, core.GroupSafe, 2000)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.ThroughputTPS, "tps")
	b.ReportMetric(last.QueryMeanMs, "query-ms")
}

// BenchmarkReadScaling is the read scale-out acceptance benchmark: aggregate
// read throughput versus replica count.  The real/ variants measure the
// actual stack (wall-clock, needs cores >= replicas to show the ratio); the
// model/ variants measure the Table 4 simulator in virtual time (host-core
// independent).  CI's bench-read-scaling job uploads the output; BENCH.md
// keeps the reference table.
func BenchmarkReadScaling(b *testing.B) {
	for _, replicas := range []int{1, 2, 4} {
		b.Run("real/replicas-"+itoa(replicas), func(b *testing.B) {
			benchmarkReadScalingReal(b, replicas)
		})
	}
	for _, servers := range []int{3, 6, 12} {
		b.Run("model/servers-"+itoa(servers), func(b *testing.B) {
			benchmarkReadScalingModel(b, servers)
		})
	}
}
