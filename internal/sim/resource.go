package sim

import "time"

// Resource is a FIFO multi-server queueing resource (e.g. a pair of disks, a
// pair of CPUs, or a shared network link).  A process acquires one of the
// resource's servers, holds it for a service time, and releases it.  Waiting
// processes are served in arrival order.
type Resource struct {
	eng     *Engine
	name    string
	servers int
	busy    int
	waiters []*Process

	totalBusy time.Duration
}

// NewResource creates a resource with the given number of identical servers.
func NewResource(eng *Engine, name string, servers int) *Resource {
	if servers < 1 {
		servers = 1
	}
	return &Resource{eng: eng, name: name, servers: servers}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Acquire grabs one server of the resource, waiting in FIFO order if all
// servers are busy.  It must be called from within a simulated process.
func (r *Resource) Acquire(p *Process) {
	if r.busy < r.servers && len(r.waiters) == 0 {
		r.busy++
		return
	}
	r.waiters = append(r.waiters, p)
	p.block()
}

// Release frees one server of the resource and hands it to the oldest waiter,
// if any.
func (r *Resource) Release() {
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		// The server slot is transferred to the waiter; busy count is
		// unchanged.
		r.eng.scheduleWake(w, 0)
		return
	}
	if r.busy > 0 {
		r.busy--
	}
}

// Use acquires the resource, holds it for the service time d and releases it.
func (r *Resource) Use(p *Process, d time.Duration) {
	r.Acquire(p)
	p.Hold(d)
	r.totalBusy += d
	r.Release()
}

// Utilization returns the fraction of server-time spent busy since the start
// of the simulation (0 if no time has elapsed).
func (r *Resource) Utilization() float64 {
	elapsed := r.eng.now
	if elapsed <= 0 {
		return 0
	}
	return float64(r.totalBusy) / (float64(elapsed) * float64(r.servers))
}
