package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"groupsafe/gsdb"
	"groupsafe/gsdb/server"
	"groupsafe/internal/core"
	"groupsafe/internal/gcs/transport"
	iserver "groupsafe/internal/server"
)

const (
	replicas = 3
	items    = 8192
	// populateBatch is the number of writes per set-up transaction (every
	// item is written once before anything is timed).  Large, so that set-up
	// at 2-safe is 8 forced transactions and not mostly the disk's mood.
	populateBatch = 1024
)

// execFunc submits one transaction for one worker.
type execFunc func(ctx context.Context, req gsdb.Request) (gsdb.Result, error)

// deployment is one running cluster with one client per worker attached.
type deployment struct {
	exec []execFunc
	// values waits until the replicas agree and returns every replica's
	// committed value of every item.
	values func(ctx context.Context) ([][]int64, error)
	close  func()

	// Traced runs only: the engines behind the cluster, its transport
	// counters, and (TCP) the directory the write-ahead logs grow in.
	replicas []*core.Replica
	netStats func() (sent, dropped uint64)
	walDir   string
}

// workloadDef is one traffic mix against one deployment shape.  Every
// workload runs 3 replicas, the certification technique, 8192 items and the
// default configuration: no batching, sequencer or apply-worker options.
type workloadDef struct {
	name      string
	stream    int // index of the workload, part of every generator stream
	why       string
	workers   int     // closed-loop clients, and the open loop's worker pool
	openRate  float64 // offered operations per second in the open phase
	readShare float64 // share of operations that are 3-key queries
	tcp       bool    // replica servers on loopback and gsdb.Dial, not gsdb.Open
	level     gsdb.SafetyLevel
}

// deploy starts the workload's deployment; a non-nil tracer asks for the
// traced form, whose replicas the benchmark can reach.
func (def *workloadDef) deploy(ctx context.Context, tmp string, tr *tracer) (*deployment, error) {
	if def.tcp {
		return deployTCP(ctx, def, tmp, tr)
	}
	return deployMem(ctx, def, tr)
}

func workloadDefs() []*workloadDef {
	nproc := runtime.GOMAXPROCS(0)
	defs := []*workloadDef{
		{
			name:    "mem-update",
			why:     "in-process group-safe updates from 16 sessions that visit the replicas in turn: abcast, core apply and db install do the work; wal is off the response path and there is no TCP",
			workers: 16, openRate: 2000, level: gsdb.GroupSafe,
		},
		{
			name:    "mem-readmix",
			why:     "90% 3-key snapshot queries (unpinned) and 10% updates through 4 sessions: gsdb routing, the core read path and storage MVCC do the work; abcast almost none",
			workers: 4, openRate: 20000, readShare: 0.9, level: gsdb.GroupSafe,
		},
		{
			name:    "tcp-groupsafe",
			why:     "group-safe updates over gsdb.Dial to 3 servers with file WALs on loopback: netproto, TCP transport and the server layer dominate; fsync is off the response path",
			workers: nproc, openRate: 2000, tcp: true, level: gsdb.GroupSafe,
		},
		{
			name:    "tcp-2safe",
			why:     "the same deployment at 2-safe: the WAL force and the end-to-end message log force sit on the response path; with tcp-groupsafe it is the paper's Fig. 9 gap on a real fsync",
			workers: nproc, openRate: 250, tcp: true, level: gsdb.Safety2,
		},
	}
	for i, def := range defs {
		def.stream = i
	}
	return defs
}

// Every deployment routes a worker's transactions by one rule, inTurn: updates
// visit the replicas in turn, queries go wherever the client's router sends
// them, and both carry the worker's session token.  A client that keeps its
// updates on one replica lets the other two outrun the third without bound
// (a majority acknowledges): under 16 saturating sessions its applied
// sequence fell 17000 behind, and about one run in thirty — in process and
// over TCP — it never caught up, so operations sent to it timed out and the
// replicas disagreed at the end.  In turn, the session's freshness floor
// makes every replica apply the session's last write before serving its next
// one, which held the lag under 40 sequences at the same throughput.

// inTurn returns the worker's next update delegate, starting at its own
// index: set-up's first transaction goes to replica 0, as a fresh TCP cluster
// whose first broadcast comes from another replica sometimes never orders it.
type inTurn int

func (t *inTurn) next() int {
	i := int(*t) % replicas
	*t++
	return i
}

// deployMem builds the in-process cluster.  Timed runs go through the public
// client (gsdb.Open, Session, Via); traced runs build the same cluster from
// core.NewCluster so the benchmark can reach the replicas' hooks and counters,
// and thread the session token and spread the queries themselves.
func deployMem(ctx context.Context, def *workloadDef, tr *tracer) (*deployment, error) {
	dep := &deployment{exec: make([]execFunc, def.workers)}
	if tr == nil {
		client, err := gsdb.Open(ctx, gsdb.WithReplicas(replicas), gsdb.WithItems(items), gsdb.WithSafetyLevel(def.level))
		if err != nil {
			return nil, err
		}
		for w := range dep.exec {
			dep.exec[w] = sessionExec(client.NewSession(), inTurn(w))
		}
		dep.values = func(ctx context.Context) ([][]int64, error) {
			if err := client.WaitConsistent(ctx); err != nil {
				return nil, err
			}
			return readValues(client.Value)
		}
		dep.close = func() { client.Close() }
		return dep, nil
	}

	cluster, err := core.NewCluster(core.ClusterConfig{Replicas: replicas, Items: items, Level: def.level})
	if err != nil {
		return nil, err
	}
	var queries atomic.Uint64
	for w := range dep.exec {
		// The worker's session: only this worker touches it.
		token, turn := uint64(0), inTurn(w)
		dep.exec[w] = func(ctx context.Context, req gsdb.Request) (gsdb.Result, error) {
			var i int
			if req.ReadOnly {
				i = int(queries.Add(1) % replicas)
			} else {
				i = turn.next()
			}
			req.MinFreshness = token
			res, err := tr.around(ctx, i, req, func(ctx context.Context, req gsdb.Request) (gsdb.Result, error) {
				return cluster.Execute(ctx, i, req)
			})
			if err == nil && res.Freshness > token {
				token = res.Freshness
			}
			return res, err
		}
	}
	dep.values = func(ctx context.Context) ([][]int64, error) {
		if err := cluster.WaitConsistent(ctx); err != nil {
			return nil, err
		}
		return readValues(cluster.Value)
	}
	dep.close = cluster.Close
	dep.replicas = cluster.Replicas()
	dep.netStats = cluster.Network().Stats
	return dep, nil
}

// sessionExec is a worker's client on the public API.
func sessionExec(session *gsdb.Session, turn inTurn) execFunc {
	return func(ctx context.Context, req gsdb.Request) (gsdb.Result, error) {
		if req.ReadOnly {
			return session.Execute(ctx, req)
		}
		return session.Execute(ctx, req, gsdb.Via(turn.next()))
	}
}

func readValues(value func(i, item int) (int64, error)) ([][]int64, error) {
	out := make([][]int64, replicas)
	for i := range out {
		out[i] = make([]int64, items)
		for item := range out[i] {
			v, err := value(i, item)
			if err != nil {
				return nil, err
			}
			out[i][item] = v
		}
	}
	return out, nil
}

// quiet discards the servers' operational log lines.
func quiet(string, ...interface{}) {}

// replicaServer is what the benchmark needs from a started server, public
// or internal.
type replicaServer interface {
	ClientAddr() string
	Close() error
}

// deployTCP starts three replica servers in this process — real loopback
// sockets between them, file write-ahead logs under tmp — and gives each
// worker its own gsdb.Dial client and session (one connection per replica).
// Timed runs start the servers through the public gsdb/server package; traced
// runs through internal/server, which also hands out the replica engine.
func deployTCP(ctx context.Context, def *workloadDef, tmp string, tr *tracer) (_ *deployment, err error) {
	dir, err := tempDir(tmp, def.name+"-")
	if err != nil {
		return nil, err
	}
	dep := &deployment{exec: make([]execFunc, def.workers), walDir: dir}
	var servers []replicaServer
	var clients []*gsdb.RemoteClient
	dep.close = func() {
		for _, c := range clients {
			c.Close()
		}
		for _, s := range servers {
			s.Close()
		}
		os.RemoveAll(dir)
	}
	defer func() {
		if err != nil {
			dep.close()
		}
	}()

	peers, err := freeAddrs(replicas)
	if err != nil {
		return nil, err
	}
	var endpoints []*transport.TCPEndpoint
	for i, id := range peers {
		walDir := filepath.Join(dir, fmt.Sprintf("r%d", i))
		var srv replicaServer
		if tr == nil {
			srv, err = server.Start(server.Config{
				ID: id, Members: peers, ClientAddr: "127.0.0.1:0", WALDir: walDir,
				Level: def.level, Items: items, Logf: quiet,
			})
		} else {
			var inner *iserver.Server
			inner, err = iserver.Start(iserver.Config{
				ID: id, Members: peers, ClientAddr: "127.0.0.1:0", WALDir: walDir,
				Level: def.level, Items: items, Logf: quiet,
			})
			if err == nil {
				srv = inner
				dep.replicas = append(dep.replicas, inner.Replica())
				if ep, ok := inner.Replica().Router().Endpoint().(*transport.TCPEndpoint); ok {
					endpoints = append(endpoints, ep)
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("start server %d: %w", i, err)
		}
		servers = append(servers, srv)
	}
	dep.netStats = func() (sent, dropped uint64) {
		for _, ep := range endpoints {
			st := ep.Stats()
			sent += st.Sent
			dropped += st.Dropped + st.InboxDropped
		}
		return sent, dropped
	}

	addrs := make([]string, len(servers))
	for i, s := range servers {
		addrs[i] = s.ClientAddr()
	}
	for w := range dep.exec {
		client, err := gsdb.Dial(ctx, addrs...)
		if err != nil {
			return nil, err
		}
		clients = append(clients, client)
		session, turn := client.NewSession(), inTurn(w)
		dep.exec[w] = func(ctx context.Context, req gsdb.Request) (gsdb.Result, error) {
			i := turn.next()
			return tr.around(ctx, i, req, func(ctx context.Context, req gsdb.Request) (gsdb.Result, error) {
				return session.Execute(ctx, req, gsdb.Via(i))
			})
		}
	}
	dep.values = func(ctx context.Context) ([][]int64, error) {
		return remoteValues(ctx, clients[0], addrs)
	}
	return dep, nil
}

// freeAddrs reserves n loopback ports by binding and releasing them; the
// servers need their peers' addresses before any of them listens.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// remoteValues polls every server's status report until all of them have
// applied the same prefix of the total order and hold identical items.
func remoteValues(ctx context.Context, client *gsdb.RemoteClient, addrs []string) ([][]int64, error) {
	for {
		infos := make([]gsdb.ServerInfo, len(addrs))
		agree := true
		for i, addr := range addrs {
			info, err := client.Info(ctx, addr)
			if err != nil {
				return nil, err
			}
			infos[i] = info
			if len(info.Items) != items {
				return nil, fmt.Errorf("server %s reports %d items, want %d", addr, len(info.Items), items)
			}
			if info.LastAppliedSeq != infos[0].LastAppliedSeq {
				agree = false
			}
		}
		for i := 1; agree && i < len(infos); i++ {
			for item, st := range infos[i].Items {
				if st != infos[0].Items[item] {
					agree = false
					break
				}
			}
		}
		if agree {
			out := make([][]int64, len(infos))
			for i, info := range infos {
				out[i] = make([]int64, items)
				for item, st := range info.Items {
					out[i][item] = st.Value
				}
			}
			return out, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("servers did not converge: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// driver generates one workload's operations and remembers what the system
// acknowledged, so that every answer and the final state can be checked.
type driver struct {
	def     *workloadDef
	dep     *deployment
	workers []workerState
	// acked[item] is the last value whose commit was acknowledged, issued
	// the last value sent.  Each item is written by exactly one worker, one
	// operation at a time, so the two differ only after a failed operation
	// whose fate is unknown.
	acked, issued []int64
	wrong         atomic.Int64
}

type workerState struct {
	rng     *rand.Rand
	lo, n   int // the private slice of the keyspace this worker writes
	counter int64
}

var (
	errAborted = errors.New("bench: transaction aborted")
	errWrong   = errors.New("bench: wrong answer")
)

func newDriver(def *workloadDef, dep *deployment, seed int64) *driver {
	d := &driver{def: def, dep: dep, workers: make([]workerState, def.workers),
		acked: make([]int64, items), issued: make([]int64, items)}
	slice := items / def.workers
	for w := range d.workers {
		d.workers[w] = workerState{
			rng: rand.New(rand.NewSource(streamSeed(seed, def.stream, w))),
			lo:  w * slice, n: slice,
		}
	}
	return d
}

// streamSeed derives an independent generator stream from the run's seed.
func streamSeed(seed int64, stream, worker int) int64 {
	return seed*1_000_003 + int64(stream)*10_007 + int64(worker)
}

// populate writes every item once (value item+1), which is part of set-up.
func (d *driver) populate(ctx context.Context) error {
	for lo := 0; lo < items; lo += populateBatch {
		ops := make([]gsdb.Op, populateBatch)
		for k := range ops {
			ops[k] = gsdb.Op{Item: lo + k, Write: true, Value: int64(lo + k + 1)}
		}
		res, err := d.dep.exec[0](ctx, gsdb.Request{Ops: ops})
		if err != nil {
			return fmt.Errorf("populate items %d..: %w", lo, err)
		}
		if !res.Committed() {
			return fmt.Errorf("populate items %d..: %w", lo, errAborted)
		}
		for _, op := range ops {
			d.acked[op.Item], d.issued[op.Item] = op.Value, op.Value
		}
	}
	return nil
}

// op is the workload's opFunc.
func (d *driver) op(ctx context.Context, w int) error {
	ws := &d.workers[w]
	if ws.rng.Float64() < d.def.readShare {
		return d.query(ctx, w, ws)
	}
	return d.update(ctx, w, ws)
}

// update reads two and writes two items of the worker's own slice, so no two
// transactions conflict and certification aborts nothing.
func (d *driver) update(ctx context.Context, w int, ws *workerState) error {
	r1, r2 := ws.lo+ws.rng.Intn(ws.n), ws.lo+ws.rng.Intn(ws.n)
	w1 := ws.lo + ws.rng.Intn(ws.n)
	w2 := ws.lo + (w1-ws.lo+1+ws.rng.Intn(ws.n-1))%ws.n
	ws.counter++
	v := int64(w+1)<<40 | ws.counter
	d.issued[w1], d.issued[w2] = v, v
	res, err := d.dep.exec[w](ctx, gsdb.Request{Ops: []gsdb.Op{
		{Item: r1}, {Item: r2},
		{Item: w1, Write: true, Value: v}, {Item: w2, Write: true, Value: v},
	}})
	if err != nil {
		return err
	}
	if !res.Committed() {
		return errAborted
	}
	d.acked[w1], d.acked[w2] = v, v
	// The worker's previous writes were acknowledged by (or its session
	// floors the read at) the replica that served these reads.
	for _, r := range [2]int{r1, r2} {
		if r == w1 || r == w2 {
			continue // acked/issued just moved; the read saw the value before
		}
		if got, ok := res.ReadValues[r]; !ok || got < d.acked[r] || got > d.issued[r] {
			d.wrong.Add(1)
			return fmt.Errorf("%w: item %d read %d, acknowledged %d", errWrong, r, got, d.acked[r])
		}
	}
	return nil
}

// query reads three distinct items anywhere in the keyspace on a snapshot.
func (d *driver) query(ctx context.Context, w int, ws *workerState) error {
	a := ws.rng.Intn(items)
	b := (a + 1 + ws.rng.Intn(items-1)) % items
	c := ws.rng.Intn(items)
	for c == a || c == b {
		c = ws.rng.Intn(items)
	}
	res, err := d.dep.exec[w](ctx, gsdb.Query(a, b, c))
	if err != nil {
		return err
	}
	for _, item := range [3]int{a, b, c} {
		// Values only grow from the populated item+1.
		if got, ok := res.ReadValues[item]; !ok || got < int64(item+1) {
			d.wrong.Add(1)
			return fmt.Errorf("%w: item %d read %d", errWrong, item, got)
		}
	}
	return nil
}

// check compares every replica's final state with what was acknowledged: a
// lost acknowledged write, a value nobody sent or replicas that disagree fail
// the run.
func (d *driver) check(ctx context.Context) error {
	if n := d.wrong.Load(); n > 0 {
		return fmt.Errorf("%d operations returned a wrong answer", n)
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	values, err := d.dep.values(ctx)
	if err != nil {
		return err
	}
	for i, vs := range values {
		for item, got := range vs {
			if got < d.acked[item] || got > d.issued[item] {
				return fmt.Errorf("replica %d item %d holds %d, last acknowledged write is %d (last sent %d)",
					i, item, got, d.acked[item], d.issued[item])
			}
			if got != values[0][item] {
				return fmt.Errorf("replica %d item %d holds %d, replica 0 holds %d", i, item, got, values[0][item])
			}
		}
	}
	return nil
}
