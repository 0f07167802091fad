package sim

import (
	"testing"
	"time"
)

func TestResourceSingleServerSerialises(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	var done []time.Duration
	for i := 0; i < 3; i++ {
		e.Spawn("w", 0, func(p *Process) {
			r.Use(p, 10*time.Millisecond)
			done = append(done, p.Now())
		})
	}
	e.Run(0)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
}

func TestResourceTwoServersParallel(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "cpu", 2)
	var done []time.Duration
	for i := 0; i < 4; i++ {
		e.Spawn("w", 0, func(p *Process) {
			r.Use(p, 10*time.Millisecond)
			done = append(done, p.Now())
		})
	}
	e.Run(0)
	// Two at a time: completions at 10,10,20,20.
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("w", time.Duration(i)*time.Millisecond, func(p *Process) {
			r.Use(p, 10*time.Millisecond)
			order = append(order, i)
		})
	}
	e.Run(0)
	for i := range order {
		if order[i] != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestResourceStats(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	for i := 0; i < 2; i++ {
		e.Spawn("w", 0, func(p *Process) { r.Use(p, 10*time.Millisecond) })
	}
	e.Run(0)
	// The second job waited 10ms, so the disk was busy the whole 20ms.
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("end = %v, want 20ms", e.Now())
	}
	if u := r.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v, want ~1.0", u)
	}
}

func TestResourceMinServers(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "x", 0)
	for i := 0; i < 2; i++ {
		e.Spawn("w", 0, func(p *Process) { r.Use(p, 10*time.Millisecond) })
	}
	e.Run(0)
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("two 10ms jobs ended at %v, want 20ms: a resource has at least one server, and zero clamps to it", e.Now())
	}
	if r.Name() != "x" {
		t.Fatalf("name = %q", r.Name())
	}
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine(1)
	mb := NewMailbox[int](e, "q")
	var got []int
	e.Spawn("consumer", 0, func(p *Process) {
		for i := 0; i < 3; i++ {
			got = append(got, mb.Get(p))
		}
	})
	e.Spawn("producer", 5*time.Millisecond, func(p *Process) {
		for i := 1; i <= 3; i++ {
			mb.Put(i)
			p.Hold(time.Millisecond)
		}
	})
	e.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mailbox order = %v, want %v", got, want)
		}
	}
	if mb.Len() != 0 {
		t.Fatalf("len = %d after every item was taken", mb.Len())
	}
}

func TestMailboxMultipleWaiters(t *testing.T) {
	e := NewEngine(1)
	mb := NewMailbox[int](e, "q")
	got := map[int]int{}
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("c", 0, func(p *Process) { got[i] = mb.Get(p) })
	}
	e.Spawn("p", time.Millisecond, func(p *Process) {
		for i := 1; i <= 3; i++ {
			mb.Put(i * 100)
		}
	})
	e.Run(0)
	if len(got) != 3 {
		t.Fatalf("only %d consumers finished", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if !seen[100] || !seen[200] || !seen[300] {
		t.Fatalf("items lost or duplicated: %v", got)
	}
	if mb.Len() != 0 {
		t.Fatalf("len = %d after every item was taken", mb.Len())
	}
}
