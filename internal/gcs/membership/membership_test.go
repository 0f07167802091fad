package membership

import (
	"testing"
	"testing/quick"
)

func newTestManager(t *testing.T) *Manager {
	t.Helper()
	m, err := New("s1", []string{"s3", "s1", "s2"})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil); err == nil {
		t.Fatal("empty member list should be rejected")
	}
	if _, err := New("x", []string{"a", "b"}); err == nil {
		t.Fatal("self missing from members should be rejected")
	}
	m := newTestManager(t)
	v := m.View()
	if v.ID != 0 || v.Size() != 3 {
		t.Fatalf("initial view = %+v", v)
	}
	// Members are sorted for determinism.
	if v.Members[0] != "s1" || v.Members[2] != "s3" {
		t.Fatalf("members not sorted: %v", v.Members)
	}
	if !v.Contains("s2") || v.Contains("ghost") {
		t.Fatal("Contains wrong")
	}
	if v.String() == "" {
		t.Fatal("String empty")
	}
}

func TestLeaveInstallsNewView(t *testing.T) {
	m := newTestManager(t)
	v, changed := m.Leave("s3")
	if !changed || v.ID != 1 || v.Size() != 2 || v.Contains("s3") {
		t.Fatalf("view after leave = %+v changed=%v", v, changed)
	}
	// Leaving an unknown member is a no-op.
	v, changed = m.Leave("ghost")
	if changed || v.ID != 1 {
		t.Fatalf("no-op leave changed the view: %+v", v)
	}
	if got := m.View(); got.ID != 1 || got.Contains("s3") {
		t.Fatalf("current view = %+v", got)
	}
}

func TestJoinInstallsNewView(t *testing.T) {
	m := newTestManager(t)
	m.Leave("s3")

	v := m.Join("s3")
	if v.ID != 2 || !v.Contains("s3") {
		t.Fatalf("view after join = %+v", v)
	}
	// Joining an existing member is a no-op.
	if v2 := m.Join("s3"); v2.ID != 2 {
		t.Fatalf("re-join = %+v", v2)
	}
}

func TestQuickViewIDsMonotonic(t *testing.T) {
	// Property: view identifiers strictly increase across any sequence of
	// joins and leaves, and the view never contains duplicates.
	f := func(ops []struct {
		Addr byte
		Join bool
	}) bool {
		m, err := New("s1", []string{"s1", "s2", "s3"})
		if err != nil {
			return false
		}
		last := m.View().ID
		for _, op := range ops {
			addr := string('a' + rune(op.Addr%6))
			if op.Join {
				m.Join(addr)
			} else if addr != "s1" {
				m.Leave(addr)
			}
			v := m.View()
			if v.ID < last {
				return false
			}
			last = v.ID
			seen := map[string]bool{}
			for _, member := range v.Members {
				if seen[member] {
					return false
				}
				seen[member] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
