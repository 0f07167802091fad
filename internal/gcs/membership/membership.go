// Package membership implements the group membership abstraction of the
// dynamic crash no-recovery model (Sect. 2.3 of the paper): the history of
// the group is a sequence of views v0, v1, ...; a new view is installed when
// a process is suspected (leave) or (re)joins.  State transfer to a joining
// process is not this package's business: internal/server pulls a snapshot
// from a peer.
//
// The view manager is deliberately local-deterministic: every replica feeds
// it the same ordered stream of membership events (in the replicated database
// these events are themselves disseminated through the atomic broadcast, so
// all replicas install the same views in the same order).
package membership

import (
	"fmt"
	"sort"
	"sync"
)

// View is one group view: a monotonically increasing identifier plus the
// sorted list of member addresses.
type View struct {
	ID      uint64
	Members []string
}

// Contains reports whether addr is a member of the view.
func (v View) Contains(addr string) bool {
	for _, m := range v.Members {
		if m == addr {
			return true
		}
	}
	return false
}

// Size returns the number of members.
func (v View) Size() int { return len(v.Members) }

// String implements fmt.Stringer.
func (v View) String() string {
	return fmt.Sprintf("view(%d, %v)", v.ID, v.Members)
}

// Manager tracks the current view of one process.
type Manager struct {
	mu   sync.Mutex
	view View
}

// New creates a manager whose initial view v0 contains the given members.
func New(self string, members []string) (*Manager, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("membership: initial member list is empty")
	}
	found := false
	for _, m := range members {
		if m == self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("membership: self %q not in initial members %v", self, members)
	}
	sorted := append([]string{}, members...)
	sort.Strings(sorted)
	return &Manager{view: View{ID: 0, Members: sorted}}, nil
}

// View returns the current view.
func (m *Manager) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.copyView(m.view)
}

func (m *Manager) copyView(v View) View {
	members := make([]string, len(v.Members))
	copy(members, v.Members)
	return View{ID: v.ID, Members: members}
}

// Leave installs a new view without the given member (a crash suspicion).  It
// is a no-op if the member is not in the current view.
func (m *Manager) Leave(addr string) (View, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.view.Contains(addr) {
		return m.copyView(m.view), false
	}
	members := make([]string, 0, len(m.view.Members)-1)
	for _, member := range m.view.Members {
		if member != addr {
			members = append(members, member)
		}
	}
	return m.installLocked(members), true
}

// Join installs a new view containing addr and returns it; a member already
// in the view is a no-op.  Only the view moves here: a rejoining process
// catches up by pulling a snapshot from a peer (internal/server).
func (m *Manager) Join(addr string) View {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.view.Contains(addr) {
		return m.copyView(m.view)
	}
	members := append([]string{}, m.view.Members...)
	members = append(members, addr)
	sort.Strings(members)
	return m.installLocked(members)
}

func (m *Manager) installLocked(members []string) View {
	m.view = View{ID: m.view.ID + 1, Members: members}
	return m.copyView(m.view)
}
