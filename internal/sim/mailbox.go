package sim

// Mailbox is an unbounded FIFO channel between simulated processes.  Put
// never blocks; Get blocks the calling process until an item is available.
type Mailbox[T any] struct {
	eng     *Engine
	name    string
	items   []T
	waiters []*Process
}

// NewMailbox creates a mailbox attached to the engine.
func NewMailbox[T any](eng *Engine, name string) *Mailbox[T] {
	return &Mailbox[T]{eng: eng, name: name}
}

// Name returns the mailbox name.
func (m *Mailbox[T]) Name() string { return m.name }

// Len returns the number of queued items.
func (m *Mailbox[T]) Len() int { return len(m.items) }

// Put appends an item and wakes the oldest waiting reader, if any.  It may be
// called from a process or from a Schedule callback.
func (m *Mailbox[T]) Put(v T) {
	m.items = append(m.items, v)
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.eng.scheduleWake(w, 0)
	}
}

// Get removes and returns the oldest item, blocking the calling process until
// one is available.
func (m *Mailbox[T]) Get(p *Process) T {
	for len(m.items) == 0 {
		m.waiters = append(m.waiters, p)
		p.block()
	}
	v := m.items[0]
	m.items = m.items[1:]
	return v
}
