package fuzz

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/sim"
	"groupsafe/internal/workload"
)

// Config parameterises one fuzz run.  Zero values are derived from the seed
// (cluster shape) or defaulted (sizes, timeouts), so the common caller passes
// nothing but a seed; pinning Level narrows a sweep onto one safety level
// (the mutation self-test pins 2-safe).
type Config struct {
	// Seed is the single 64-bit root of the run: cluster shape, workload and
	// adversary schedule are all pure functions of it.
	Seed int64
	// Level pins the safety level by name (core.ParseLevel); empty derives a
	// level admissible for the profile from the seed.  A pinned level always
	// wins over the draw.
	Level string
	// Replicas is the cluster size (0: derived, 3–5).
	Replicas int
	// Items is the database size (0: 48; small on purpose — conflicts and
	// convergence checks need collisions, not realism).
	Items int
	// Sessions is the number of concurrent client sessions (0: 3).
	Sessions int
	// Steps is the length of the generated schedule (0: 48).
	Steps int
	// Profile shapes the adversary mix: "mixed" (default), "storm"
	// (crash-recover heavy, always ends in a total-failure storm),
	// "partition" (split-brain heavy), "calm" (delay/sleep only — every
	// message still arrives), "sharded" (the mixed fault mix over a
	// PARTITIONED keyspace: Partitions derives to >1 and the level draw is
	// constrained to the group-communication levels, so cross-partition 2PC
	// runs under fire) or "readheavy" (query-dominated with session freshness
	// floors under crash/recover churn — the read scale-out sweep; the level
	// draw is constrained to group-communication levels so the floors, and
	// the session-routing invariant, are meaningful).
	Profile string
	// TxnTimeout bounds each transaction submission (0: 300ms).  Scenario
	// generation does not depend on it, so tests may stretch it without
	// changing the trace... except that it is part of the marshalled header,
	// so corpus entries replay with the timeout they were found under.
	TxnTimeout time.Duration
	// Partitions splits the keyspace into that many hash partitions routed
	// through internal/partition (0 or 1: unpartitioned, today's exact code
	// path).  More than one partition requires a group-communication level;
	// the "sharded" profile derives a count
	// from the seed.  Marshalled only when > 1, so pre-existing corpus
	// traces keep their exact bytes.
	Partitions int
}

// Profiles lists the supported adversary profiles.
func Profiles() []string {
	return []string{"mixed", "storm", "partition", "calm", "sharded", "readheavy"}
}

// resolve fills defaults and derives the free cluster parameters from the
// seed.  The returned config is fully concrete: resolving it again is the
// identity, which is what makes a marshalled trace self-contained.
func (c Config) resolve() (Config, error) {
	if c.Items == 0 {
		c.Items = 48
	}
	if c.Sessions == 0 {
		c.Sessions = 3
	}
	if c.Steps == 0 {
		c.Steps = 48
	}
	if c.Profile == "" {
		c.Profile = "mixed"
	}
	if c.TxnTimeout == 0 {
		c.TxnTimeout = 300 * time.Millisecond
	}
	okProfile := false
	for _, p := range Profiles() {
		if p == c.Profile {
			okProfile = true
		}
	}
	if !okProfile {
		return c, fmt.Errorf("fuzz: unknown profile %q (want one of %v)", c.Profile, Profiles())
	}
	// Cluster-shape derivation consumes its own random stream, so pinning a
	// field never shifts the draws of the others.
	if c.Replicas == 0 {
		rng := rand.New(rand.NewSource(sim.DeriveSeed(c.Seed, streamReplicas)))
		c.Replicas = 3 + rng.Intn(3)
	}
	// The sharded profile is the partitioned-keyspace sweep: the partition
	// count derives from its own stream, and the level draw is constrained
	// to what partitioned operation supports.
	if c.Profile == "sharded" && c.Partitions == 0 {
		rng := rand.New(rand.NewSource(sim.DeriveSeed(c.Seed, streamPartitions)))
		c.Partitions = 2 + rng.Intn(2)
	}
	if c.Partitions < 1 {
		c.Partitions = 1
	}
	// One unpinned seed in four outside the sharded and readheavy profiles
	// runs the lazy 1-safe baseline.  The draw keeps its own stream, so the
	// seeds recorded in bug reports keep their level.
	if c.Level == "" && c.Partitions == 1 && c.Profile != "sharded" && c.Profile != "readheavy" {
		rng := rand.New(rand.NewSource(sim.DeriveSeed(c.Seed, streamLazy)))
		if rng.Intn(4) == 3 {
			c.Level = core.Safety1Lazy.String()
		}
	}
	if c.Level == "" {
		rng := rand.New(rand.NewSource(sim.DeriveSeed(c.Seed, streamLevel)))
		switch {
		case c.Partitions > 1:
			c.Level = pick(rng, []core.SafetyLevel{
				core.GroupSafe, core.GroupSafe, core.GroupSafe,
				core.Group1Safe, core.Group1Safe,
				core.Safety2, core.Safety2,
				core.VerySafe,
			}).String()
		case c.Profile == "readheavy":
			c.Level = pick(rng, []core.SafetyLevel{
				core.GroupSafe, core.GroupSafe, core.GroupSafe,
				core.Group1Safe,
				core.Safety2,
				core.VerySafe,
			}).String()
		default:
			c.Level = pick(rng, []core.SafetyLevel{
				core.GroupSafe, core.GroupSafe, core.GroupSafe,
				core.Group1Safe, core.Group1Safe,
				core.Safety2, core.Safety2,
				core.VerySafe,
				core.Safety0, core.Safety1Lazy,
			}).String()
		}
	}
	level, err := core.ParseLevel(c.Level)
	if err != nil {
		return c, err
	}
	if c.Partitions > 1 && !level.UsesGroupCommunication() {
		return c, fmt.Errorf("fuzz: %d partitions require a group-communication level (got %s)", c.Partitions, c.Level)
	}
	return c, nil
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// Random stream labels for sim.DeriveSeed: each consumer of the root seed
// gets its own decorrelated child stream.  A label never changes, or every
// recorded seed would derive a different scenario.
const (
	streamReplicas uint64 = iota + 1
	streamLazy
	streamLevel
	streamSteps
	streamNetwork
	streamPartitions
)

// StepKind enumerates the adversary schedule's step types.
type StepKind int

const (
	// StepTxn submits one transaction on a session.
	StepTxn StepKind = iota
	// StepCrash crashes a replica (volatile state lost).
	StepCrash
	// StepRecover recovers a crashed replica (state transfer from the most
	// advanced live donor, plus end-to-end replay where configured).
	StepRecover
	// StepPartition splits the network: Group on one side, the rest on the
	// other.
	StepPartition
	// StepHeal removes any partition.
	StepHeal
	// StepDelay retunes the network's latency and jitter.
	StepDelay
	// StepLoss retunes the network's message-loss probability.
	StepLoss
	// StepBlock blocks the one-way link From→To.
	StepBlock
	// StepUnblock removes every one-way link block.
	StepUnblock
	// StepSleep lets the cluster run undisturbed for Dur.
	StepSleep
	// StepBarrier waits until every session has drained its queued
	// transactions (the storm profile synchronises on it before a total
	// failure, so the set of acknowledged transactions is stable).
	StepBarrier
)

// Step is one entry of the adversary schedule.  Which fields are meaningful
// depends on Kind; see the StepKind constants.
type Step struct {
	Kind     StepKind
	Session  int
	Delegate int
	Query    bool
	Floor    bool
	Ops      []workload.Op
	Replica  int
	Group    []int
	Latency  time.Duration
	Jitter   time.Duration
	Loss     float64
	From, To int
	Dur      time.Duration
}

// Scenario is a fully resolved run description: a concrete config plus the
// adversary schedule.  Generated marks schedules that came verbatim from
// Generate(Cfg) — for those, Marshal output is a pure function of Cfg.Seed
// and the corpus replay test asserts byte-identical regeneration.
type Scenario struct {
	Cfg       Config
	Generated bool
	Steps     []Step
}

// Generate expands a config into its scenario.  Everything is drawn from
// random streams derived from cfg.Seed, so the result is a pure function of
// the (resolved) config.
func Generate(cfg Config) (*Scenario, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	g := &stepGen{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(sim.DeriveSeed(cfg.Seed, streamSteps))),
		crashed: make(map[int]bool),
	}
	steps := make([]Step, 0, cfg.Steps+16)
	for len(steps) < cfg.Steps {
		steps = append(steps, g.next())
	}
	// The storm profile always ends in a drained total-failure storm (and
	// the mixed profile sometimes does): every live replica crashes after a
	// barrier stabilised the acknowledged set, then everything recovers and
	// a few more transactions exercise the rebuilt cluster.
	storm := cfg.Profile == "storm" || (cfg.Profile == "mixed" && g.rng.Float64() < 0.3)
	if storm {
		steps = append(steps, Step{Kind: StepBarrier})
		for i := 0; i < cfg.Replicas; i++ {
			if !g.crashed[i] {
				steps = append(steps, Step{Kind: StepCrash, Replica: i})
				g.crashed[i] = true
			}
		}
		steps = append(steps, Step{Kind: StepSleep, Dur: 5 * time.Millisecond})
		for i := 0; i < cfg.Replicas; i++ {
			steps = append(steps, Step{Kind: StepRecover, Replica: i})
			delete(g.crashed, i)
		}
		for i := 0; i < 4; i++ {
			steps = append(steps, g.txnStep())
		}
	}
	return &Scenario{Cfg: cfg, Generated: true, Steps: steps}, nil
}

// stepGen tracks a model of the cluster while drawing steps, so the schedule
// stays well-formed (recover only what crashed, heal only open partitions,
// keep a quorum alive outside deliberate total failures).
type stepGen struct {
	cfg         Config
	rng         *rand.Rand
	crashed     map[int]bool
	partitioned bool
	blocks      int
	delayed     bool
	lossy       bool
}

func (g *stepGen) next() Step {
	txnProb := map[string]float64{"mixed": 0.72, "storm": 0.58, "partition": 0.66, "calm": 0.9, "sharded": 0.72, "readheavy": 0.86}[g.cfg.Profile]
	if g.rng.Float64() < txnProb {
		return g.txnStep()
	}
	return g.faultStep()
}

func (g *stepGen) txnStep() Step {
	// The readheavy profile inverts the mix: queries dominate and almost all
	// of them carry the session floor, so the schedule keeps exercising the
	// freshness-aware routing (a few updates remain to move the tokens).
	queryProb, floorProb := 0.35, 0.6
	if g.cfg.Profile == "readheavy" {
		queryProb, floorProb = 0.82, 0.88
	}
	s := Step{
		Kind:     StepTxn,
		Session:  g.rng.Intn(g.cfg.Sessions),
		Delegate: g.rng.Intn(g.cfg.Replicas),
		Query:    g.rng.Float64() < queryProb,
	}
	if s.Query {
		s.Floor = g.rng.Float64() < floorProb
		n := 1 + g.rng.Intn(3)
		for i := 0; i < n; i++ {
			s.Ops = append(s.Ops, workload.Op{Item: g.rng.Intn(g.cfg.Items)})
		}
		return s
	}
	n := 1 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		op := workload.Op{Item: g.rng.Intn(g.cfg.Items)}
		if g.rng.Float64() < 0.7 {
			op.Write = true
			op.Value = int64(g.rng.Intn(1 << 16))
		}
		s.Ops = append(s.Ops, op)
	}
	return s
}

// faultWeights returns the per-profile fault mix as (kind, weight) pairs.
func (g *stepGen) faultWeights() ([]StepKind, []float64) {
	switch g.cfg.Profile {
	case "storm":
		return []StepKind{StepCrash, StepRecover, StepSleep, StepDelay, StepPartition, StepHeal},
			[]float64{0.42, 0.30, 0.10, 0.08, 0.05, 0.05}
	case "partition":
		return []StepKind{StepPartition, StepHeal, StepBlock, StepUnblock, StepCrash, StepRecover, StepDelay, StepSleep},
			[]float64{0.28, 0.20, 0.14, 0.10, 0.08, 0.08, 0.06, 0.06}
	case "calm":
		return []StepKind{StepDelay, StepSleep}, []float64{0.5, 0.5}
	case "readheavy":
		// Crash/recover churn moves the session routing between replicas
		// mid-stream (the interesting case for token monotonicity); delays
		// skew the freshness race without destroying messages.
		return []StepKind{StepCrash, StepRecover, StepDelay, StepSleep},
			[]float64{0.26, 0.36, 0.20, 0.18}
	default: // mixed, sharded
		return []StepKind{StepCrash, StepRecover, StepPartition, StepHeal, StepDelay, StepLoss, StepBlock, StepUnblock, StepSleep},
			[]float64{0.26, 0.20, 0.12, 0.08, 0.10, 0.07, 0.07, 0.04, 0.06}
	}
}

func (g *stepGen) faultStep() Step {
	kinds, weights := g.faultWeights()
	x := g.rng.Float64()
	var total float64
	for _, w := range weights {
		total += w
	}
	x *= total
	kind := kinds[len(kinds)-1]
	for i, w := range weights {
		if x < w {
			kind = kinds[i]
			break
		}
		x -= w
	}
	switch kind {
	case StepCrash:
		alive := g.aliveList()
		if len(alive) == 0 {
			return g.sleepStep()
		}
		// A crash that takes the last live replica down is a total failure;
		// outside the storm-profile tail it is only drawn occasionally.
		if len(alive) == 1 {
			limit := 0.0
			if g.cfg.Profile == "storm" {
				limit = 0.5
			} else if g.cfg.Profile == "mixed" {
				limit = 0.15
			}
			if g.rng.Float64() >= limit {
				return g.recoverStep()
			}
		}
		r := pick(g.rng, alive)
		g.crashed[r] = true
		return Step{Kind: StepCrash, Replica: r}
	case StepRecover:
		return g.recoverStep()
	case StepPartition:
		if g.partitioned {
			g.partitioned = false
			return Step{Kind: StepHeal}
		}
		n := g.cfg.Replicas
		size := 1 + g.rng.Intn(n/2)
		perm := g.rng.Perm(n)[:size]
		group := append([]int(nil), perm...)
		sortInts(group)
		g.partitioned = true
		return Step{Kind: StepPartition, Group: group}
	case StepHeal:
		if !g.partitioned {
			return g.sleepStep()
		}
		g.partitioned = false
		return Step{Kind: StepHeal}
	case StepDelay:
		if g.delayed && g.rng.Float64() < 0.4 {
			g.delayed = false
			return Step{Kind: StepDelay}
		}
		g.delayed = true
		return Step{
			Kind:    StepDelay,
			Latency: time.Duration(g.rng.Intn(1500)) * time.Microsecond,
			Jitter:  time.Duration(g.rng.Intn(2500)) * time.Microsecond,
		}
	case StepLoss:
		if g.lossy && g.rng.Float64() < 0.5 {
			g.lossy = false
			return Step{Kind: StepLoss}
		}
		g.lossy = true
		return Step{Kind: StepLoss, Loss: 0.02 + 0.13*g.rng.Float64()}
	case StepBlock:
		if g.blocks > 2 {
			g.blocks = 0
			return Step{Kind: StepUnblock}
		}
		from := g.rng.Intn(g.cfg.Replicas)
		to := g.rng.Intn(g.cfg.Replicas - 1)
		if to >= from {
			to++
		}
		g.blocks++
		return Step{Kind: StepBlock, From: from, To: to}
	case StepUnblock:
		g.blocks = 0
		return Step{Kind: StepUnblock}
	default:
		return g.sleepStep()
	}
}

func (g *stepGen) recoverStep() Step {
	crashed := make([]int, 0, len(g.crashed))
	for r := range g.crashed {
		crashed = append(crashed, r)
	}
	if len(crashed) == 0 {
		return g.sleepStep()
	}
	sortInts(crashed)
	r := pick(g.rng, crashed)
	delete(g.crashed, r)
	return Step{Kind: StepRecover, Replica: r}
}

func (g *stepGen) aliveList() []int {
	alive := make([]int, 0, g.cfg.Replicas)
	for i := 0; i < g.cfg.Replicas; i++ {
		if !g.crashed[i] {
			alive = append(alive, i)
		}
	}
	return alive
}

func (g *stepGen) sleepStep() Step {
	return Step{Kind: StepSleep, Dur: time.Duration(2+g.rng.Intn(18)) * time.Millisecond}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// --- trace codec -----------------------------------------------------------

// traceMagic is the first line of every marshalled scenario.
const traceMagic = "groupsafe-fuzz-trace v1"

// Marshal renders the scenario as its canonical replayable trace.  The
// format is line-based and byte-stable: for a Generated scenario the bytes
// are a pure function of the resolved config, which the corpus replay test
// asserts.
func (s *Scenario) Marshal() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", traceMagic)
	fmt.Fprintf(&b, "seed %d\n", s.Cfg.Seed)
	fmt.Fprintf(&b, "level %s\n", s.Cfg.Level)
	fmt.Fprintf(&b, "replicas %d\n", s.Cfg.Replicas)
	fmt.Fprintf(&b, "items %d\n", s.Cfg.Items)
	fmt.Fprintf(&b, "sessions %d\n", s.Cfg.Sessions)
	fmt.Fprintf(&b, "steps %d\n", s.Cfg.Steps)
	fmt.Fprintf(&b, "profile %s\n", s.Cfg.Profile)
	fmt.Fprintf(&b, "txn-timeout %s\n", s.Cfg.TxnTimeout)
	// Emitted only when non-default: older traces stay byte-identical.
	if s.Cfg.Partitions > 1 {
		fmt.Fprintf(&b, "partitions %d\n", s.Cfg.Partitions)
	}
	fmt.Fprintf(&b, "generated %t\n", s.Generated)
	fmt.Fprintf(&b, "schedule %d\n", len(s.Steps))
	for _, st := range s.Steps {
		b.WriteString(marshalStep(st))
		b.WriteByte('\n')
	}
	b.WriteString("end\n")
	return []byte(b.String())
}

func marshalStep(s Step) string {
	switch s.Kind {
	case StepTxn:
		ops := make([]string, len(s.Ops))
		for i, op := range s.Ops {
			if op.Write {
				ops[i] = fmt.Sprintf("w%d:%d", op.Item, op.Value)
			} else {
				ops[i] = fmt.Sprintf("r%d", op.Item)
			}
		}
		return fmt.Sprintf("txn session=%d delegate=%d query=%t floor=%t ops=%s",
			s.Session, s.Delegate, s.Query, s.Floor, strings.Join(ops, ","))
	case StepCrash:
		return fmt.Sprintf("crash replica=%d", s.Replica)
	case StepRecover:
		return fmt.Sprintf("recover replica=%d", s.Replica)
	case StepPartition:
		group := make([]string, len(s.Group))
		for i, r := range s.Group {
			group[i] = strconv.Itoa(r)
		}
		return fmt.Sprintf("partition group=%s", strings.Join(group, ","))
	case StepHeal:
		return "heal"
	case StepDelay:
		return fmt.Sprintf("delay latency=%s jitter=%s", s.Latency, s.Jitter)
	case StepLoss:
		return fmt.Sprintf("loss p=%s", strconv.FormatFloat(s.Loss, 'g', -1, 64))
	case StepBlock:
		return fmt.Sprintf("block from=%d to=%d", s.From, s.To)
	case StepUnblock:
		return "unblock"
	case StepSleep:
		return fmt.Sprintf("sleep dur=%s", s.Dur)
	case StepBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("unknown kind=%d", int(s.Kind))
	}
}

// ParseScenario parses a marshalled trace back into a scenario.
// Marshal(ParseScenario(b)) == b for every trace Marshal emitted.
func ParseScenario(data []byte) (*Scenario, error) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != traceMagic {
		return nil, fmt.Errorf("fuzz: not a %s file", traceMagic)
	}
	s := &Scenario{}
	i := 1
	nSteps := -1
	for ; i < len(lines); i++ {
		key, val, _ := strings.Cut(lines[i], " ")
		var err error
		switch key {
		case "seed":
			s.Cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "level":
			s.Cfg.Level = val
		case "replicas":
			s.Cfg.Replicas, err = strconv.Atoi(val)
		case "items":
			s.Cfg.Items, err = strconv.Atoi(val)
		case "sessions":
			s.Cfg.Sessions, err = strconv.Atoi(val)
		case "steps":
			s.Cfg.Steps, err = strconv.Atoi(val)
		case "profile":
			s.Cfg.Profile = val
		case "txn-timeout":
			s.Cfg.TxnTimeout, err = time.ParseDuration(val)
		case "partitions":
			s.Cfg.Partitions, err = strconv.Atoi(val)
		case "generated":
			s.Generated, err = strconv.ParseBool(val)
		case "schedule":
			nSteps, err = strconv.Atoi(val)
		default:
			err = fmt.Errorf("unknown header line %q", lines[i])
		}
		if err != nil {
			return nil, fmt.Errorf("fuzz: trace line %d: %w", i+1, err)
		}
		if nSteps >= 0 {
			i++
			break
		}
	}
	for ; i < len(lines) && lines[i] != "end"; i++ {
		st, err := parseStep(lines[i])
		if err != nil {
			return nil, fmt.Errorf("fuzz: trace line %d: %w", i+1, err)
		}
		s.Steps = append(s.Steps, st)
	}
	if i >= len(lines) || lines[i] != "end" {
		return nil, fmt.Errorf("fuzz: trace is truncated (no end line)")
	}
	if nSteps != len(s.Steps) {
		return nil, fmt.Errorf("fuzz: trace declares %d steps but carries %d", nSteps, len(s.Steps))
	}
	return s, nil
}

func parseStep(line string) (Step, error) {
	kind, rest, _ := strings.Cut(line, " ")
	fields := map[string]string{}
	for _, f := range strings.Fields(rest) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Step{}, fmt.Errorf("malformed field %q", f)
		}
		fields[k] = v
	}
	atoi := func(k string) (int, error) { return strconv.Atoi(fields[k]) }
	var s Step
	var err error
	switch kind {
	case "txn":
		s.Kind = StepTxn
		if s.Session, err = atoi("session"); err != nil {
			return s, err
		}
		if s.Delegate, err = atoi("delegate"); err != nil {
			return s, err
		}
		if s.Query, err = strconv.ParseBool(fields["query"]); err != nil {
			return s, err
		}
		if s.Floor, err = strconv.ParseBool(fields["floor"]); err != nil {
			return s, err
		}
		for _, tok := range strings.Split(fields["ops"], ",") {
			if tok == "" {
				continue
			}
			var op workload.Op
			switch tok[0] {
			case 'w':
				op.Write = true
				itemStr, valStr, ok := strings.Cut(tok[1:], ":")
				if !ok {
					return s, fmt.Errorf("malformed write op %q", tok)
				}
				if op.Item, err = strconv.Atoi(itemStr); err != nil {
					return s, err
				}
				if op.Value, err = strconv.ParseInt(valStr, 10, 64); err != nil {
					return s, err
				}
			case 'r':
				if op.Item, err = strconv.Atoi(tok[1:]); err != nil {
					return s, err
				}
			default:
				return s, fmt.Errorf("malformed op %q", tok)
			}
			s.Ops = append(s.Ops, op)
		}
	case "crash":
		s.Kind = StepCrash
		s.Replica, err = atoi("replica")
	case "recover":
		s.Kind = StepRecover
		s.Replica, err = atoi("replica")
	case "partition":
		s.Kind = StepPartition
		for _, tok := range strings.Split(fields["group"], ",") {
			r, err := strconv.Atoi(tok)
			if err != nil {
				return s, err
			}
			s.Group = append(s.Group, r)
		}
	case "heal":
		s.Kind = StepHeal
	case "delay":
		s.Kind = StepDelay
		if s.Latency, err = time.ParseDuration(fields["latency"]); err != nil {
			return s, err
		}
		s.Jitter, err = time.ParseDuration(fields["jitter"])
	case "loss":
		s.Kind = StepLoss
		s.Loss, err = strconv.ParseFloat(fields["p"], 64)
	case "block":
		s.Kind = StepBlock
		if s.From, err = atoi("from"); err != nil {
			return s, err
		}
		s.To, err = atoi("to")
	case "unblock":
		s.Kind = StepUnblock
	case "sleep":
		s.Kind = StepSleep
		s.Dur, err = time.ParseDuration(fields["dur"])
	case "barrier":
		s.Kind = StepBarrier
	default:
		return s, fmt.Errorf("unknown step kind %q", kind)
	}
	return s, err
}
