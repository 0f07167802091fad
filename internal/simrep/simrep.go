package simrep

import (
	"fmt"
	"slices"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/sim"
	"groupsafe/internal/stats"
	"groupsafe/internal/workload"
)

// Run simulates one of the Fig. 9 techniques at one offered load and returns
// its measured behaviour.
func Run(cfg Config, level core.SafetyLevel, loadTPS float64) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if !slices.Contains(Figure9Levels(), level) {
		return Result{}, fmt.Errorf("simrep: %v is not simulated: the model has the paper's Fig. 9 techniques %v", level, Figure9Levels())
	}
	if loadTPS <= 0 {
		return Result{}, fmt.Errorf("simrep: load must be positive, got %v", loadTPS)
	}
	s := newSimulation(cfg, level, loadTPS)
	s.run()
	return s.result(), nil
}

// simTxn is the simulator-side representation of one transaction.
type simTxn struct {
	id          uint64
	delegateIdx int
	ops         []workload.Op
	writeOps    []workload.Op
	readItems   []int
	readVers    map[int]uint64
	seq         uint64
	committed   bool
	start       time.Duration
	notify      *sim.Mailbox[bool]
}

// server models one replica server: two CPUs, two disks, a client admission
// limit, and the in-order apply stage fed by the atomic broadcast.
type server struct {
	idx        int
	cpu        *sim.Resource
	disk       *sim.Resource
	clients    *sim.Resource
	applyQueue *sim.Mailbox[*simTxn]
	applySlots *sim.Resource
}

type simulation struct {
	cfg   Config
	level core.SafetyLevel
	load  float64

	eng      *sim.Engine
	network  *sim.Resource
	servers  []*server
	versions []uint64
	gen      *workload.Generator

	nextSeq   uint64
	warmupEnd time.Duration
	genEnd    time.Duration

	responses *stats.Sample
	completed uint64
	committed uint64
	aborted   uint64
	lastDone  time.Duration
}

func newSimulation(cfg Config, level core.SafetyLevel, loadTPS float64) *simulation {
	eng := sim.NewEngine(cfg.Seed)
	s := &simulation{
		cfg:      cfg,
		level:    level,
		load:     loadTPS,
		eng:      eng,
		network:  sim.NewResource(eng, "lan", 1),
		versions: make([]uint64, cfg.Items),
		gen: workload.NewGenerator(workload.Config{
			Items:     cfg.Items,
			MinOps:    cfg.MinOps,
			MaxOps:    cfg.MaxOps,
			WriteProb: cfg.WriteProb,
		}, cfg.Seed),
		warmupEnd: time.Duration(float64(cfg.Duration) * cfg.WarmupFraction),
		genEnd:    cfg.Duration,
		responses: stats.NewSample(),
	}
	for i := 0; i < cfg.Servers; i++ {
		srv := &server{
			idx:        i,
			cpu:        sim.NewResource(eng, fmt.Sprintf("cpu-%d", i), cfg.CPUsPerServer),
			disk:       sim.NewResource(eng, fmt.Sprintf("disk-%d", i), cfg.DisksPerServer),
			clients:    sim.NewResource(eng, fmt.Sprintf("clients-%d", i), cfg.ClientsPerServer),
			applyQueue: sim.NewMailbox[*simTxn](eng, fmt.Sprintf("apply-%d", i)),
			applySlots: sim.NewResource(eng, fmt.Sprintf("applyslots-%d", i), cfg.DisksPerServer),
		}
		s.servers = append(s.servers, srv)
	}
	return s
}

func (s *simulation) run() {
	if s.level.UsesGroupCommunication() {
		for _, srv := range s.servers {
			srv := srv
			s.eng.Spawn(fmt.Sprintf("dispatcher-%d", srv.idx), 0, func(p *sim.Process) {
				s.dispatcher(p, srv)
			})
		}
	}
	s.eng.Spawn("generator", 0, s.generator)
	s.eng.Run(0)
}

// generator produces Poisson arrivals at the offered load, assigning delegate
// servers round-robin.
func (s *simulation) generator(p *sim.Process) {
	interarrival := time.Duration(float64(time.Second) / s.load)
	rr := 0
	for {
		p.Hold(sim.Exponential(s.eng.Rand(), interarrival))
		if p.Now() >= s.genEnd {
			return
		}
		delegate := rr % s.cfg.Servers
		rr++
		t := s.newTxn(delegate)
		s.eng.Spawn(fmt.Sprintf("txn-%d", t.id), 0, func(p *sim.Process) {
			s.runTxn(p, t)
		})
	}
}

func (s *simulation) newTxn(delegate int) *simTxn {
	w := s.gen.Next(0, delegate)
	t := &simTxn{
		id:          w.ID,
		delegateIdx: delegate,
		ops:         w.Ops,
		readItems:   w.ReadItems(),
		readVers:    make(map[int]uint64),
		notify:      sim.NewMailbox[bool](s.eng, "notify"),
	}
	for _, op := range w.Ops {
		if op.Write {
			t.writeOps = append(t.writeOps, op)
		}
	}
	return t
}

// runTxn is the client/delegate flow of one transaction.
func (s *simulation) runTxn(p *sim.Process, t *simTxn) {
	srv := s.servers[t.delegateIdx]
	srv.clients.Acquire(p)
	t.start = p.Now()

	var committed bool
	if s.level == core.Safety1Lazy {
		committed = s.runLazy(p, t, srv)
	} else {
		committed = s.runReplicated(p, t, srv)
	}
	s.record(p.Now(), t, committed)
	srv.clients.Release()
}

// executeOps charges the CPU and (on a buffer miss) the disk for each
// operation.
func (s *simulation) executeOps(p *sim.Process, srv *server, ops []workload.Op) {
	for range ops {
		srv.cpu.Use(p, s.cfg.CPUPerIO)
		if !sim.Bernoulli(s.eng.Rand(), s.cfg.BufferHitRatio) {
			srv.disk.Use(p, s.diskAccess())
		}
	}
}

func (s *simulation) diskAccess() time.Duration {
	return sim.UniformDuration(s.eng.Rand(), s.cfg.DiskAccessMin, s.cfg.DiskAccessMax)
}

// runLazy is the lazy (1-safe) flow: everything happens at the delegate;
// propagation is asynchronous.
func (s *simulation) runLazy(p *sim.Process, t *simTxn, srv *server) bool {
	s.executeOps(p, srv, t.ops)
	// Force the commit record before answering the client.
	srv.disk.Use(p, s.diskAccess())
	// Asynchronous propagation and remote installation, outside the response.
	// Remote log writes are group-committed (the paper runs all techniques
	// with the same logging setting), so no per-transaction force is charged
	// on the asynchronous path.
	if len(t.writeOps) > 0 {
		s.eng.Spawn(fmt.Sprintf("lazyprop-%d", t.id), 0, func(pp *sim.Process) {
			srv.cpu.Use(pp, time.Duration(s.cfg.Servers-1)*s.cfg.CPUPerNetworkOp)
			s.network.Use(pp, time.Duration(s.cfg.Servers-1)*s.cfg.NetworkDelay)
			for i, remote := range s.servers {
				if i == t.delegateIdx {
					continue
				}
				remote := remote
				s.eng.Spawn(fmt.Sprintf("lazyinstall-%d-%d", t.id, i), 0, func(ip *sim.Process) {
					// The background writer installs remote write sets with
					// bounded concurrency, like the apply stage of the
					// group-based techniques.
					remote.applySlots.Acquire(ip)
					s.installWrites(ip, remote, t)
					remote.applySlots.Release()
				})
			}
		})
	}
	return true
}

// runReplicated is the group-communication flow of Fig. 2 (group-1-safe) and
// Fig. 8 (group-safe).
func (s *simulation) runReplicated(p *sim.Process, t *simTxn, srv *server) bool {
	// Execution phase at the delegate.  Fig. 8 (group-safe) executes only the
	// reads before the broadcast; Fig. 2 processes the whole transaction.
	// Read versions are sampled when each read executes, so the certification
	// conflict window spans the whole execution phase plus the broadcast.
	for _, op := range t.ops {
		if op.Write && s.level == core.GroupSafe {
			continue
		}
		srv.cpu.Use(p, s.cfg.CPUPerIO)
		if !sim.Bernoulli(s.eng.Rand(), s.cfg.BufferHitRatio) {
			srv.disk.Use(p, s.diskAccess())
		}
		if !op.Write {
			if _, seen := t.readVers[op.Item]; !seen {
				t.readVers[op.Item] = s.versions[op.Item]
			}
		}
	}
	// Read-only transactions terminate at the delegate.
	if len(t.writeOps) == 0 {
		return true
	}

	// Atomic broadcast: a dissemination round plus an ordering round on the
	// shared LAN, with the per-message CPU cost at the delegate.
	peers := time.Duration(s.cfg.Servers - 1)
	srv.cpu.Use(p, peers*s.cfg.CPUPerNetworkOp)
	s.network.Use(p, peers*s.cfg.NetworkDelay)
	s.network.Use(p, peers*s.cfg.NetworkDelay)
	s.orderAndEnqueue(t)

	// Wait for the response condition of the safety level, signalled by the
	// apply stage.
	return t.notify.Get(p)
}

// orderAndEnqueue fixes the delivery position of a broadcast transaction and
// hands it to every server's apply stage.  Certification is deterministic, so
// its outcome is computed once (every server reaches the same verdict).
func (s *simulation) orderAndEnqueue(t *simTxn) {
	s.nextSeq++
	t.seq = s.nextSeq
	t.committed = s.certify(t)
	for _, target := range s.servers {
		target.applyQueue.Put(t)
	}
}

// certify implements first-updater-wins certification against the logical
// database versions, and installs the version bumps of committed write sets.
func (s *simulation) certify(t *simTxn) bool {
	for item, ver := range t.readVers {
		if s.versions[item] != ver {
			return false
		}
	}
	for _, op := range t.writeOps {
		s.versions[op.Item]++
	}
	return true
}

// dispatcher is the per-server apply stage: it takes delivered transactions
// in total order, certifies them (CPU), signals the group-safe response, and
// hands the disk work to an installer bounded by the number of disks.
func (s *simulation) dispatcher(p *sim.Process, srv *server) {
	for {
		t := srv.applyQueue.Get(p)
		srv.applySlots.Acquire(p)

		srv.cpu.Use(p, s.cfg.CertifyCPU)
		if srv.idx == t.delegateIdx {
			switch s.level {
			case core.GroupSafe:
				// Fig. 8: reply as soon as the decision is known.
				t.notify.Put(t.committed)
			default:
				if !t.committed {
					t.notify.Put(false)
				}
			}
		}
		if !t.committed {
			srv.applySlots.Release()
			continue
		}
		txn := t
		target := srv
		s.eng.Spawn(fmt.Sprintf("install-%d-%d", t.id, srv.idx), 0, func(ip *sim.Process) {
			s.installReplicated(ip, target, txn)
		})
	}
}

// installReplicated performs the disk work of one delivered transaction at
// one server and signals the group-1-safe response.  Background log writes
// are group-committed; only the delegate's commit record, which gates the
// Fig. 2 response, is forced individually.
func (s *simulation) installReplicated(p *sim.Process, srv *server, t *simTxn) {
	isDelegate := srv.idx == t.delegateIdx
	// Install the writes.  In the Fig. 2 flow the delegate already executed
	// its writes during the execution phase, so only the remote servers pay
	// for them here; in the Fig. 8 flow every server installs them now.
	if s.level == core.GroupSafe || !isDelegate {
		s.installWrites(p, srv, t)
	}
	respond := isDelegate && s.level == core.Group1Safe
	if respond {
		srv.disk.Use(p, s.diskAccess())
	}
	srv.applySlots.Release()
	if respond {
		t.notify.Put(true)
	}
}

// installWrites charges the CPU and disk cost of installing a write set at
// one server.  Write-set installation happens off the response path and
// benefits from write caching (the paper: "writes of adjacent pages would
// also be scheduled together to maximise disk throughput"), modelled as a
// higher buffer-hit ratio for installs.
func (s *simulation) installWrites(p *sim.Process, srv *server, t *simTxn) {
	hit := s.cfg.BufferHitRatio + s.installHitBonus()
	for range t.writeOps {
		srv.cpu.Use(p, s.cfg.CPUPerIO)
		if !sim.Bernoulli(s.eng.Rand(), hit) {
			srv.disk.Use(p, s.diskAccess())
		}
	}
}

// installHitBonus is the additional buffer-hit probability enjoyed by
// write-set installation (write caching / read-modify-write locality).
func (s *simulation) installHitBonus() float64 { return 0.15 }

// record accounts one completed transaction.
func (s *simulation) record(now time.Duration, t *simTxn, committed bool) {
	if t.start < s.warmupEnd {
		return
	}
	s.completed++
	if committed {
		s.committed++
	} else {
		s.aborted++
	}
	s.responses.AddDuration(now - t.start)
	if now > s.lastDone {
		s.lastDone = now
	}
}

func (s *simulation) result() Result {
	r := Result{
		Level:          s.level,
		Seed:           s.cfg.Seed,
		LoadTPS:        s.load,
		Completed:      s.completed,
		Committed:      s.committed,
		Aborted:        s.aborted,
		ResponseMeanMs: s.responses.Mean(),
		ResponseP95Ms:  s.responses.Percentile(95),
	}
	if s.completed > 0 {
		r.AbortRate = float64(s.aborted) / float64(s.completed)
	}
	window := s.lastDone - s.warmupEnd
	if window > 0 {
		r.ThroughputTPS = float64(s.completed) / window.Seconds()
	}
	var disk float64
	for _, srv := range s.servers {
		disk += srv.disk.Utilization()
	}
	r.DiskUtilization = disk / float64(len(s.servers))
	r.NetworkUtilization = s.network.Utilization()
	return r
}
