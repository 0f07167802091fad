package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"groupsafe/gsdb"
	"groupsafe/internal/core"
)

// The traced run records spans from the benchmark's own code, around its
// calls into the system (spans inside the program are a later change):
//
//	txn      Execute entry → Execute returns                       (parent)
//	 order   Execute entry → the delegate's deliver hook fires for the txn:
//	         read phase, broadcast, total order, delivery
//	 apply   deliver hook → Execute returns: certification, log append (and
//	         force, at 2-safe), install, notification
//	durable  Execute returns → Replica.WaitDurable(CommitLSN) returns: the
//	         paper's response-to-durability window (sibling of txn)
//
// Spans of one transaction share its id.  They are kept in memory and written
// out when the run ends.

// span is one timed interval; times are nanoseconds since the tracer was
// created.
type span struct {
	Txn    uint64 `json:"txn"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	// traceEvery is the sampling period: one update in traceEvery is traced.
	traceEvery = 4
	// traceIDBase keeps the ids the tracer assigns clear of the ids replicas
	// assign ((index+1)<<40 | n), which every replica's applied set dedups on.
	traceIDBase = uint64(1) << 50
)

type pendingDurable struct {
	txn      uint64
	lsn      uint64
	returned int64
}

type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	seen    atomic.Uint64 // updates offered for sampling
	nextID  atomic.Uint64
	watched []sync.Map // per replica: txn id → *atomic.Int64 deliver time

	replicas []*core.Replica
	durable  []chan pendingDurable
	wg       sync.WaitGroup

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start installs the deliver hooks and begins sampling.
func (t *tracer) start(ctx context.Context, replicas []*core.Replica) {
	t.replicas = replicas
	t.watched = make([]sync.Map, len(replicas))
	t.durable = make([]chan pendingDurable, len(replicas))
	for i, r := range replicas {
		i, r := i, r
		r.SetDeliverHook(func(txnID uint64) {
			if at, ok := t.watched[i].Load(txnID); ok {
				at.(*atomic.Int64).Store(t.now())
			}
		})
		// One transaction waits per force, so a short queue is a backlog
		// already; a full queue drops the durable span, not the transaction.
		t.durable[i] = make(chan pendingDurable, 64)
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			for p := range t.durable[i] {
				if r.WaitDurable(ctx, p.lsn) == nil {
					t.record(span{Txn: p.txn, Name: "durable", Start: p.returned, End: t.now()})
				}
			}
		}()
	}
	t.on.Store(true)
}

// stop ends sampling, removes the hooks and waits for the durable waits.
// No worker may be inside around when it is called.
func (t *tracer) stop() {
	t.on.Store(false)
	for i, r := range t.replicas {
		r.SetDeliverHook(nil)
		close(t.durable[i])
	}
	t.wg.Wait()
}

func (t *tracer) record(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// around runs one transaction through inner, tracing it when it is a sampled
// update and the tracer is on.  A nil tracer traces nothing.
func (t *tracer) around(ctx context.Context, delegate int, req gsdb.Request, inner execFunc) (gsdb.Result, error) {
	if t == nil || !t.on.Load() || len(req.Ops) == 0 || !req.Ops[len(req.Ops)-1].Write || t.seen.Add(1)%traceEvery != 0 {
		return inner(ctx, req)
	}
	req.ID = traceIDBase | t.nextID.Add(1)
	var delivered atomic.Int64
	t.watched[delegate].Store(req.ID, &delivered)
	begin := t.now()
	res, err := inner(ctx, req)
	end := t.now()
	t.watched[delegate].Delete(req.ID)
	at := delivered.Load()
	if err != nil || !res.Committed() || at == 0 {
		return res, err
	}
	t.record(
		span{Txn: req.ID, Name: "txn", Start: begin, End: end},
		span{Txn: req.ID, Name: "order", Parent: "txn", Start: begin, End: at},
		span{Txn: req.ID, Name: "apply", Parent: "txn", Start: at, End: end},
	)
	select {
	case t.durable[delegate] <- pendingDurable{txn: req.ID, lsn: res.CommitLSN, returned: end}:
	default:
	}
	return res, err
}

// durations returns the sorted lengths of the spans with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	sortDurations(ds)
	return ds
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
