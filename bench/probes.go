package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"groupsafe/gsdb"
	"groupsafe/internal/apply"
	"groupsafe/internal/core"
	"groupsafe/internal/db"
	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/gcs/e2e"
	"groupsafe/internal/gcs/transport"
	"groupsafe/internal/netproto"
	"groupsafe/internal/partition"
	iserver "groupsafe/internal/server"
	"groupsafe/internal/storage"
	"groupsafe/internal/wal"
)

// The layer probes time calls into one layer's public functions from
// outside, each for a fixed number of iterations after a warm-up tenth, on
// zero-value configurations.  They do not depend on the workload; a traced
// run of any workload reports all of them.

// probe is one isolated measurement: it sets its metrics on m.
type probe struct {
	name string
	run  func(m *metrics, tmp string, scale int) error
}

func probes() []probe {
	return []probe{
		{"gsdb+core", probeRouting},
		{"abcast", probeAbcast},
		{"e2e", probeE2E},
		{"transport", probeTransport},
		{"netproto", probeNetproto},
		{"server", probeServer},
		{"wal", probeWAL},
		{"db", probeDB},
		{"storage", probeStorage},
		{"apply", probeApply},
		{"partition", probePartition},
	}
}

// meanNs runs fn for 10 batches of n calls (after one warm-up batch) and
// returns the median over the batches of the mean nanoseconds per call:
// the call is too short to time alone, and the median drops a batch that a
// collection or a preemption landed in.
func meanNs(n int, fn func(i int) error) (float64, int, error) {
	const rounds = 10
	means := make([]float64, 0, rounds)
	for r := -1; r < rounds; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, 0, err
			}
		}
		if r >= 0 {
			means = append(means, float64(time.Since(start))/float64(n))
		}
	}
	return median(means), rounds * n, nil
}

// medianUs times each of n calls (after n/10 warm-up calls) and returns the
// median in microseconds.
func medianUs(n int, fn func(i int) error) (float64, int, error) {
	ds := make([]time.Duration, 0, n)
	warm := n / 10
	for i := 0; i < warm+n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, 0, err
		}
		if i >= warm {
			ds = append(ds, time.Since(start))
		}
	}
	sortDurations(ds)
	return percentile(ds, 0.5), n, nil
}

// probeRouting measures what the public client adds to a query
// (gsdb.Client.Execute minus core.Cluster.Execute) and the replica's own
// snapshot read.
func probeRouting(m *metrics, _ string, scale int) error {
	ctx := context.Background()
	client, err := gsdb.Open(ctx, gsdb.WithReplicas(replicas), gsdb.WithItems(items))
	if err != nil {
		return err
	}
	defer client.Close()
	cluster, err := core.NewCluster(core.ClusterConfig{Replicas: replicas, Items: items, Level: core.GroupSafe})
	if err != nil {
		return err
	}
	defer cluster.Close()

	query := gsdb.Query(1, 4097, 8000)
	n := 2000 * scale
	viaClient, samples, err := meanNs(n, func(int) error {
		_, err := client.Execute(ctx, query)
		return err
	})
	if err != nil {
		return err
	}
	viaCluster, _, err := meanNs(n, func(i int) error {
		_, err := cluster.Execute(ctx, i%replicas, query)
		return err
	})
	if err != nil {
		return err
	}
	m.set("gsdb.route_overhead_ns", viaClient-viaCluster, samples)

	r := cluster.Replica(0)
	keys := []int{1, 4097, 8000}
	ns, samples, err := meanNs(n, func(int) error {
		_, _, _, err := r.SnapshotReads(ctx, keys, 0, 0, false)
		return err
	})
	m.set("core.query_ns", ns, samples)
	return err
}

// abcastGroup is three broadcasters on one in-memory network.
type abcastGroup struct {
	routers []*gcs.Router
	nodes   []*abcast.Broadcaster
}

func newAbcastGroup() (*abcastGroup, error) {
	network := transport.NewMemNetwork()
	members := []string{"n0", "n1", "n2"}
	g := &abcastGroup{}
	for _, self := range members {
		router := gcs.NewRouter(network.Endpoint(self))
		bc, err := abcast.New(abcast.Config{Self: self, Members: members}, router)
		if err != nil {
			g.close()
			return nil, err
		}
		router.Start()
		g.routers = append(g.routers, router)
		g.nodes = append(g.nodes, bc)
	}
	return g, nil
}

func (g *abcastGroup) close() {
	for _, bc := range g.nodes {
		bc.Close()
	}
	for _, r := range g.routers {
		r.Stop()
	}
}

// inFlight broadcasts n payloads through send with at most depth
// outstanding; delivered must be called once per delivery at the sender.
func inFlight(n, depth int, send func() error) (delivered func(), wait func() error) {
	slots := make(chan struct{}, depth)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			slots <- struct{}{}
			if err := send(); err != nil {
				done <- err
				return
			}
		}
		for i := 0; i < depth; i++ { // every slot free again: all delivered
			slots <- struct{}{}
		}
		done <- nil
	}()
	return func() { <-slots }, func() error { return <-done }
}

func probeAbcast(m *metrics, _ string, scale int) error {
	g, err := newAbcastGroup()
	if err != nil {
		return err
	}
	defer g.close()
	stop := make(chan struct{})
	defer close(stop)
	for _, bc := range g.nodes[1:] {
		go drain(bc.Deliveries(), stop)
	}
	payload := make([]byte, 64)
	sender := g.nodes[0]

	us, samples, err := medianUs(1000*scale, func(int) error {
		if _, err := sender.Broadcast(payload); err != nil {
			return err
		}
		<-sender.Deliveries()
		return nil
	})
	if err != nil {
		return err
	}
	m.set("abcast.bcast_deliver_us", us, samples)

	n := 5000 * scale
	start := time.Now()
	delivered, wait := inFlight(n, 16, func() error {
		_, err := sender.Broadcast(payload)
		return err
	})
	go func() {
		for i := 0; i < n; i++ {
			<-sender.Deliveries()
			delivered()
		}
	}()
	if err := wait(); err != nil {
		return err
	}
	m.set("abcast.bcast_tps_16", float64(n)/time.Since(start).Seconds(), n)
	return nil
}

func drain[T any](ch <-chan T, stop <-chan struct{}) {
	for {
		select {
		case <-ch:
		case <-stop:
			return
		}
	}
}

// probeE2E runs the end-to-end broadcast over file message logs with 16
// broadcasts in flight and reports how many log forces one logged message
// costs the sender (below 1 when the delivery pump's group force engages).
func probeE2E(m *metrics, tmp string, scale int) error {
	dir, err := tempDir(tmp, "e2e-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	g, err := newAbcastGroup()
	if err != nil {
		return err
	}
	defer g.close()
	stop := make(chan struct{})
	defer close(stop)

	var sender *e2e.Broadcaster
	for i, bc := range g.nodes {
		log, err := wal.OpenFileLog(filepath.Join(dir, fmt.Sprintf("msg%d.wal", i)))
		if err != nil {
			return err
		}
		defer log.Close()
		eb, err := e2e.Wrap(bc, e2e.Config{Log: log})
		if err != nil {
			return err
		}
		defer eb.Close()
		eb.Start()
		if i == 0 {
			sender = eb
			continue
		}
		go func() {
			for {
				select {
				case d := <-eb.Deliveries():
					_ = eb.Ack(d.Seq) // a failed ack only leaves the message replayable
				case <-stop:
					return
				}
			}
		}()
	}

	n := 1000 * scale
	payload := make([]byte, 64)
	delivered, wait := inFlight(n, 16, func() error {
		_, err := sender.Broadcast(payload)
		return err
	})
	go func() {
		for i := 0; i < n; i++ {
			d := <-sender.Deliveries()
			_ = sender.Ack(d.Seq)
			delivered()
		}
	}()
	if err := wait(); err != nil {
		return err
	}
	st := sender.Stats()
	m.set("e2e.forces_per_txn", ratio(float64(st.Forces), float64(st.Logged)), int(st.Logged))
	return nil
}

func probeTransport(m *metrics, _ string, scale int) error {
	payload := make([]byte, 256)
	network := transport.NewMemNetwork()
	a, b := network.Endpoint("a"), network.Endpoint("b")
	defer a.Close()
	defer b.Close()
	ns, samples, err := meanNs(5000*scale, func(int) error {
		err := a.Send("b", transport.Message{Type: "probe", Payload: payload})
		<-b.Recv()
		return err
	})
	if err != nil {
		return err
	}
	m.set("transport.mem_hop_ns", ns, samples)

	ta, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ta.Close()
	tb, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tb.Close()
	lost := time.After(time.Minute) // one timer for the whole probe, not one per hop
	us, samples, err := medianUs(2000*scale, func(int) error {
		if err := ta.Send(tb.Addr(), transport.Message{Type: "probe", Payload: payload}); err != nil {
			return err
		}
		select {
		case <-tb.Recv():
			return nil
		case <-lost:
			return fmt.Errorf("tcp hop: a message never arrived")
		}
	})
	if err != nil {
		return err
	}
	m.set("transport.tcp_hop_us", us, samples)
	return nil
}

// probeNetproto encodes and decodes the workloads' update request and its
// result.
func probeNetproto(m *metrics, _ string, scale int) error {
	req := core.Request{ID: 7, Ops: []gsdb.Op{
		{Item: 100}, {Item: 2000},
		{Item: 300, Write: true, Value: 1<<40 | 12345}, {Item: 4000, Write: true, Value: 1<<40 | 12345},
	}}
	res := core.Result{TxnID: 1<<40 | 77, Outcome: core.OutcomeCommitted, Delegate: "127.0.0.1:40001",
		ReadValues: map[int]int64{100: 1<<40 | 5, 2000: 1<<40 | 6}, Level: core.GroupSafe, CommitLSN: 123456, Freshness: 654321}
	var buf []byte
	codeReq := func(int) error {
		buf = netproto.AppendRequest(buf[:0], req)
		_, err := netproto.DecodeRequest(buf)
		return err
	}
	codeRes := func(int) error {
		buf = netproto.AppendResult(buf[:0], res)
		_, err := netproto.DecodeResult(buf)
		return err
	}
	n := 5000 * scale
	ns, samples, err := meanNs(n, codeReq)
	if err != nil {
		return err
	}
	m.set("netproto.req_codec_ns", ns, samples)
	if ns, samples, err = meanNs(n, codeRes); err != nil {
		return err
	}
	m.set("netproto.res_codec_ns", ns, samples)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := codeReq(i); err != nil {
			return err
		}
		if err := codeRes(i); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	m.set("netproto.allocs_per_roundtrip", float64(after.Mallocs-before.Mallocs)/float64(n), n)
	return nil
}

// probeServer times a 1-key query over gsdb.Dial against a single-replica
// server: socket, framing and dispatch, with no broadcast and no force.
func probeServer(m *metrics, tmp string, scale int) error {
	dir, err := tempDir(tmp, "server-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	peers, err := freeAddrs(1)
	if err != nil {
		return err
	}
	srv, err := iserver.Start(iserver.Config{
		ID: peers[0], Members: peers, ClientAddr: "127.0.0.1:0", WALDir: dir,
		Items: items, Logf: quiet,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ctx := context.Background()
	client, err := gsdb.Dial(ctx, srv.ClientAddr())
	if err != nil {
		return err
	}
	defer client.Close()
	us, samples, err := medianUs(2000*scale, func(i int) error {
		opCtx, cancel := context.WithTimeout(ctx, opDeadline)
		defer cancel()
		_, err := client.Execute(opCtx, gsdb.Query(1+(i&1023)))
		return err
	})
	if err != nil {
		return err
	}
	m.set("server.query_rtt_us", us, samples)
	return nil
}

// countingLog counts the forces a wal.Log receives.
type countingLog struct {
	wal.Log
	syncs atomic.Int64
}

func (l *countingLog) Sync() error {
	l.syncs.Add(1)
	return l.Log.Sync()
}

// openProbeLog opens a file write-ahead log in a fresh directory under tmp.
func openProbeLog(tmp string) (log *wal.FileLog, remove func(), err error) {
	dir, err := tempDir(tmp, "wal-")
	if err != nil {
		return nil, nil, err
	}
	if log, err = wal.OpenFileLog(filepath.Join(dir, "probe.wal")); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return log, func() {
		log.Close()
		os.RemoveAll(dir)
	}, nil
}

var probeRecord = wal.Record{Kind: wal.KindUpdate, TxnID: 1, Item: 2, Value: 3}

// fileSyncUs is the sandbox's own cost of forcing one small record to a file
// write-ahead log (append + flush + fsync), as a median.  It is also stamped
// into the report header.
func fileSyncUs(tmp string, n int) (float64, int, error) {
	log, remove, err := openProbeLog(tmp)
	if err != nil {
		return 0, 0, err
	}
	defer remove()
	return medianUs(n, func(int) error {
		if _, err := log.Append(probeRecord); err != nil {
			return err
		}
		return log.Sync()
	})
}

func probeWAL(m *metrics, tmp string, scale int) error {
	us, samples, err := fileSyncUs(tmp, 100*scale)
	if err != nil {
		return err
	}
	m.set("wal.file_sync_us", us, samples)

	log, remove, err := openProbeLog(tmp)
	if err != nil {
		return err
	}
	defer remove()
	ns, samples, err := meanNs(5000*scale, func(int) error {
		_, err := log.Append(probeRecord)
		return err
	})
	if err != nil {
		return err
	}
	m.set("wal.file_append_ns", ns, samples)

	counted := &countingLog{Log: log}
	gc := wal.NewGroupCommitter(counted)
	const waiters = 16
	rounds := 20 * scale
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				lsn, err := counted.Append(probeRecord)
				if err == nil {
					err = gc.WaitDurable(lsn)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	m.set("wal.gc_forces_per_waiter", float64(counted.syncs.Load())/float64(waiters*rounds), waiters*rounds)
	return nil
}

func probeDB(m *metrics, _ string, scale int) error {
	d, err := db.Open(db.Config{Items: items, Policy: db.SyncOnCommit})
	if err != nil {
		return err
	}
	defer d.Close()
	us, samples, err := medianUs(5000*scale, func(i int) error {
		txn, err := d.Begin(0)
		if err != nil {
			return err
		}
		k := (i & 1023) * 8
		for _, item := range [2]int{k, k + 1} {
			if _, err := txn.Read(item); err != nil {
				return err
			}
		}
		for _, item := range [2]int{k + 2, k + 3} {
			if err := txn.Write(item, int64(i)); err != nil {
				return err
			}
		}
		return txn.Commit()
	})
	if err != nil {
		return err
	}
	m.set("db.local_commit_us", us, samples)

	next := uint64(1) << 32
	writes := make([]storage.Write, 2)
	ns, samples, err := meanNs(2000*scale, func(i int) error {
		next++
		k := (i & 1023) * 8
		writes[0], writes[1] = storage.Write{Item: k + 4, Value: int64(i)}, storage.Write{Item: k + 5, Value: int64(i)}
		fresh, _, err := d.StageWrites(next, writes)
		if err != nil || !fresh {
			return err
		}
		return d.InstallWrites(writes)
	})
	if err != nil {
		return err
	}
	m.set("db.stage_install_ns", ns, samples)

	ns, samples, err = meanNs(5000*scale, func(i int) error {
		rt, err := d.BeginRead()
		if err != nil {
			return err
		}
		k := (i & 1023) * 8
		for _, item := range [3]int{k, k + 2, k + 4} {
			if _, err := rt.Read(item); err != nil {
				return err
			}
		}
		return rt.Close()
	})
	m.set("db.read_txn_ns", ns, samples)
	return err
}

func probeStorage(m *metrics, _ string, scale int) error {
	s := storage.NewStore(items)
	writes := make([]storage.Write, 2)
	ns, samples, err := meanNs(10000*scale, func(i int) error {
		k := (i & 4095) * 2
		writes[0], writes[1] = storage.Write{Item: k, Value: int64(i)}, storage.Write{Item: k + 1, Value: int64(i)}
		return s.ApplyWrites(writes)
	})
	if err != nil {
		return err
	}
	m.set("storage.apply_writes_ns", ns, samples)
	ns, samples, err = meanNs(10000*scale, func(i int) error {
		snap := s.AcquireSnap()
		defer snap.Release()
		k := i & 4095
		for _, item := range [3]int{k, k + 2048, k + 4096} {
			if _, _, err := snap.Read(item); err != nil {
				return err
			}
		}
		return nil
	})
	m.set("storage.snap_read_ns", ns, samples)
	return err
}

// probeApply schedules batches of 256 two-item write sets, one in eight of
// which shares an item with its predecessor, and installs them into a store.
func probeApply(m *metrics, _ string, scale int) error {
	const batch = 256
	s := storage.NewStore(items)
	tasks := make([][]storage.Write, batch)
	for i := range tasks {
		k := i * 8
		if i%8 == 7 {
			k = (i-1)*8 + 1 // overlaps the previous task's second item
		}
		tasks[i] = []storage.Write{{Item: k, Value: int64(i)}, {Item: k + 1, Value: int64(i)}}
	}
	sched := apply.New(runtime.GOMAXPROCS(0))
	ns, samples, err := meanNs(20*scale, func(int) error {
		return sched.Run(tasks, func(i int) error { return s.ApplyWrites(tasks[i]) })
	})
	m.set("apply.sched_ns_per_txn", ns/batch, samples*batch)
	return err
}

// probePartition runs serial updates on a two-partition cluster: both writes
// in one partition, then one write in each (ordered two-phase commit).
func probePartition(m *metrics, _ string, scale int) error {
	cluster, err := partition.New(core.ClusterConfig{Replicas: replicas, Items: items, Level: core.GroupSafe, Partitions: 2})
	if err != nil {
		return err
	}
	defer cluster.Close()
	ctx := context.Background()
	update := func(second int) func(i int) error {
		return func(i int) error {
			k := (i & 1023) * 2 // even items live in partition 0
			res, err := cluster.Execute(ctx, i%replicas, core.Request{Ops: []gsdb.Op{
				{Item: k, Write: true, Value: int64(i)}, {Item: k + second, Write: true, Value: int64(i)},
			}})
			if err == nil && !res.Committed() {
				err = errAborted
			}
			return err
		}
	}
	us, samples, err := medianUs(500*scale, update(2048))
	if err != nil {
		return err
	}
	m.set("partition.single_us", us, samples)
	us, samples, err = medianUs(250*scale, update(2049))
	if err != nil {
		return err
	}
	m.set("partition.cross_us", us, samples)
	return nil
}

// tempDir makes a fresh directory under tmp, creating tmp on first use.
func tempDir(tmp, prefix string) (string, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, prefix)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
