package server

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/gcs/fd"
	"groupsafe/internal/gcs/transport"
	"groupsafe/internal/wal"
	"groupsafe/internal/workload"
)

// freePorts reserves n distinct loopback ports by binding and immediately
// releasing them; the race window until the server re-binds is acceptable in
// tests.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// startCluster boots n server processes (in-process, but over real TCP
// sockets and file WALs) and returns them plus their peer addresses.
func startCluster(t *testing.T, n int, level core.SafetyLevel) ([]*Server, []string) {
	t.Helper()
	// One reservation for both kinds of listener: a client address picked
	// with port 0 at start-up can be handed the peer port a later server has
	// reserved and released.
	ports := freePorts(t, 2*n)
	peers, clients := ports[:n], ports[n:]
	servers := make([]*Server, n)
	for i := range servers {
		srv, err := Start(Config{
			ID:                peers[i],
			Members:           peers,
			ClientAddr:        clients[i],
			WALDir:            filepath.Join(t.TempDir(), fmt.Sprintf("r%d", i)),
			Level:             level,
			Items:             64,
			ExecTimeout:       5 * time.Second,
			HeartbeatInterval: 20 * time.Millisecond,
			ResyncInterval:    200 * time.Millisecond,
			Logf:              t.Logf,
		})
		if err != nil {
			t.Fatalf("start server %d: %v", i, err)
		}
		servers[i] = srv
		t.Cleanup(func() { srv.Close() })
	}
	return servers, peers
}

// TestThreeServerCommitAndConvergence: a 3-server TCP cluster commits
// transactions submitted at different replicas and converges to identical
// state.
func TestThreeServerCommitAndConvergence(t *testing.T) {
	servers, _ := startCluster(t, 3, core.GroupSafe)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	for i := 0; i < 12; i++ {
		delegate := servers[i%3].Replica()
		res, err := delegate.Execute(ctx, core.Request{Ops: []workload.Op{
			{Item: i % 8, Write: true, Value: int64(100 + i)},
		}})
		if err != nil {
			t.Fatalf("txn %d at %s: %v", i, delegate.ID(), err)
		}
		if !res.Committed() {
			t.Fatalf("txn %d aborted", i)
		}
	}

	waitConverged(t, servers, 10*time.Second)
}

func waitConverged(t *testing.T, servers []*Server, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if converged(servers) {
			return
		}
		if time.Now().After(deadline) {
			for _, s := range servers {
				t.Logf("%s: seq=%d items=%v", s.PeerAddr(), s.Replica().LastAppliedSeq(), s.Replica().StoreItems()[:8])
			}
			t.Fatal("servers did not converge")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func converged(servers []*Server) bool {
	ref := servers[0].Replica().StoreItems()
	for _, s := range servers[1:] {
		items := s.Replica().StoreItems()
		if len(items) != len(ref) {
			return false
		}
		for i := range ref {
			if items[i] != ref[i] {
				return false
			}
		}
	}
	return true
}

// restartableCluster boots three group-safe servers that can be closed and
// restarted in place: mk(i) starts server i on its own peer address, client
// address and WAL directory, and commit runs a one-write transaction
// delegated to servers[delegate].  Whatever servers holds at the end is
// closed.
func restartableCluster(t *testing.T) (servers []*Server, mk func(i int) *Server, commit func(delegate, item int, value int64)) {
	ports := freePorts(t, 6) // as in startCluster
	peers, clients := ports[:3], ports[3:]
	walDirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	mk = func(i int) *Server {
		srv, err := Start(Config{
			ID:                peers[i],
			Members:           peers,
			ClientAddr:        clients[i],
			WALDir:            walDirs[i],
			Level:             core.GroupSafe,
			Items:             64,
			ExecTimeout:       5 * time.Second,
			HeartbeatInterval: 20 * time.Millisecond,
			SuspectTimeout:    120 * time.Millisecond,
			ResyncInterval:    150 * time.Millisecond,
			Logf:              t.Logf,
		})
		if err != nil {
			t.Fatalf("start server %d: %v", i, err)
		}
		return srv
	}
	servers = []*Server{mk(0), mk(1), mk(2)}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	commit = func(delegate int, item int, value int64) {
		t.Helper()
		res, err := servers[delegate].Replica().Execute(ctx, core.Request{Ops: []workload.Op{
			{Item: item, Write: true, Value: value},
		}})
		if err != nil {
			t.Fatalf("commit at %d: %v", delegate, err)
		}
		if !res.Committed() {
			t.Fatalf("commit at %d aborted", delegate)
		}
	}
	return servers, mk, commit
}

// TestServerRestartRejoins: stop one server, keep committing on the
// survivors, restart it in a fresh process-equivalent (same WAL dir, fresh
// Server value) and assert it catches back up via WAL replay + snapshot pull,
// and that the survivors' views exclude and re-admit it.
func TestServerRestartRejoins(t *testing.T) {
	servers, mk, commit := restartableCluster(t)

	commit(0, 1, 10)
	commit(1, 2, 20)

	// Take server 2 down; survivors must notice and keep committing.
	servers[2].Close()
	waitView(t, servers[0], func(members []string) bool { return len(members) == 2 }, 5*time.Second,
		"survivor never excluded the dead peer")
	commit(0, 3, 30)
	commit(1, 1, 11)

	// Restart it: same WAL dir and peer address, a brand-new Server (the
	// in-process stand-in for a restarted OS process).
	servers[2] = mk(2)
	waitView(t, servers[0], func(members []string) bool { return len(members) == 3 }, 5*time.Second,
		"survivor never re-admitted the restarted peer")
	commit(2, 4, 40)

	waitConverged(t, servers, 10*time.Second)
}

// TestServerRejoinIsPrompt: after an outage long enough for the survivors'
// redial backoff to reach its one-second cap, a restarted server is back in
// every view, and commits what it delegates, within 250ms — its peers redial
// as soon as it connects to them instead of sleeping out their backoff.
func TestServerRejoinIsPrompt(t *testing.T) {
	const bound = 250 * time.Millisecond
	servers, mk, commit := restartableCluster(t)
	commit(0, 1, 10)
	commit(1, 2, 20)

	servers[2].Close()
	waitView(t, servers[0], func(members []string) bool { return len(members) == 2 }, 5*time.Second,
		"survivor never excluded the dead peer")
	time.Sleep(3 * time.Second)

	servers[2] = mk(2)
	restarted := time.Now()
	commit(2, 3, 30)
	took := time.Since(restarted)
	t.Logf("the restarted server's first commit took %v", took)
	if took > bound {
		t.Fatalf("first commit after the restart: %v, want at most %v", took, bound)
	}
	for _, s := range servers {
		waitView(t, s, func(members []string) bool { return len(members) == 3 }, bound-time.Since(restarted),
			fmt.Sprintf("%s did not show all three members within %v of the restart", s.PeerAddr(), bound))
	}
	waitConverged(t, servers, 10*time.Second)
}

// TestOnDetectorEventNumbersViews: a server's view starts as every member,
// sorted, at ID 0.  Each change its failure detector reports — a peer
// suspected, a suspected peer heard from again — gets the next ID; a report
// that changes nothing keeps it.
func TestOnDetectorEventNumbersViews(t *testing.T) {
	all, without3 := []string{"s1", "s2", "s3"}, []string{"s1", "s2"}
	type step struct {
		peer      string
		suspected bool
		id        uint64
		members   []string
	}
	newServer := func() *Server {
		return &Server{cfg: Config{ID: "s1", Members: []string{"s3", "s1", "s2"}, Logf: t.Logf}, suspected: make(map[string]bool)}
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"initial", nil},
		{"leave", []step{{"s3", true, 1, without3}, {"s3", true, 1, without3}}},
		{"join", []step{{"s3", true, 1, without3}, {"s3", false, 2, all}, {"s3", false, 2, all}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer()
			steps := append([]step{{id: 0, members: all}}, tc.steps...)
			for i, st := range steps {
				if i > 0 {
					s.onDetectorEvent(fd.Event{Peer: st.peer, Suspected: st.suspected})
				}
				if v := s.View(); v.ID != st.id || !reflect.DeepEqual(v.Members, st.members) {
					t.Fatalf("step %d: view %+v, want ID %d and members %v", i, v, st.id, st.members)
				}
			}
		})
	}
	// Property: across any report sequence the ID counts exactly the changes,
	// and the view never lists a member twice.
	t.Run("monotonic", func(t *testing.T) {
		f := func(reports []struct {
			Peer      uint8
			Suspected bool
		}) bool {
			s, changes := newServer(), uint64(0)
			for _, r := range reports {
				peer := fmt.Sprintf("s%d", 2+r.Peer%2)
				if s.suspected[peer] != r.Suspected {
					changes++
				}
				s.onDetectorEvent(fd.Event{Peer: peer, Suspected: r.Suspected})
				v := s.View()
				seen := make(map[string]bool)
				for _, m := range v.Members {
					if seen[m] {
						return false
					}
					seen[m] = true
				}
				if v.ID != changes || !seen["s1"] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

func waitView(t *testing.T, s *Server, ok func(members []string) bool, d time.Duration, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !ok(s.View().Members) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: view=%v", msg, s.View())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRestartedDelegateWritesAreNotSilentlyLost: a restarted server must not
// reuse transaction ids from its previous life.  Every replica's applied set
// still contains the first life's ids, so a reissued id certifies and
// acknowledges normally but is skipped at install everywhere as a presumed
// re-delivery — the acknowledged write silently vanishes.  The persisted
// incarnation counter namespaces the id counter (core.ReplicaConfig.
// IncarnationBase) to rule this out; this test delegates transactions at the
// same server before and after a restart and asserts every acknowledged
// value is actually present.  (Convergence checks cannot catch the bug: all
// replicas skip the install equally.)
func TestRestartedDelegateWritesAreNotSilentlyLost(t *testing.T) {
	servers, mk, commit := restartableCluster(t)

	// First life: the restartee delegates three transactions, burning ids.
	for i := 0; i < 3; i++ {
		commit(2, i, int64(100+i))
	}

	servers[2].Close()
	waitView(t, servers[0], func(members []string) bool { return len(members) == 2 }, 5*time.Second,
		"survivor never excluded the dead peer")

	// Second life, same WAL dir: the id counter must resume past the first
	// life's range, not restart.
	servers[2] = mk(2)
	waitView(t, servers[0], func(members []string) bool { return len(members) == 3 }, 5*time.Second,
		"survivor never re-admitted the restarted peer")
	for i := 0; i < 3; i++ {
		commit(2, 10+i, int64(200+i))
	}

	waitConverged(t, servers, 10*time.Second)
	for _, s := range servers {
		items := s.Replica().StoreItems()
		for i := 0; i < 3; i++ {
			if items[10+i].Value != int64(200+i) {
				t.Fatalf("%s: acknowledged post-restart write lost: item %d = %d, want %d",
					s.PeerAddr(), 10+i, items[10+i].Value, 200+i)
			}
		}
	}
}

// TestTwoSafeServerKeepsOneLog: at an end-to-end level a server's WAL
// directory still holds one log — the broadcast's message records live in
// db.wal — and Close reports a clean final force.  Started quiescent, every
// log holds every message and commit record; started under traffic, a replica
// whose start-up snapshot answer stepped over a delivery logs fewer.
func TestTwoSafeServerKeepsOneLog(t *testing.T) {
	for _, start := range []string{"under traffic", "quiescent"} {
		t.Run(start, func(t *testing.T) {
			servers, _ := startCluster(t, 3, core.Safety2)
			if start == "quiescent" {
				settle(t, servers)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for i := 0; i < 6; i++ {
				res, err := servers[i%3].Replica().Execute(ctx, core.Request{Ops: []workload.Op{{Item: i, Write: true, Value: int64(i)}}})
				if err != nil || !res.Committed() {
					t.Fatalf("txn %d: %+v, %v", i, res, err)
				}
			}
			waitConverged(t, servers, 10*time.Second)
			for i, s := range servers {
				if err := s.Close(); err != nil {
					t.Fatalf("server %d: Close: %v", i, err)
				}
				entries, err := os.ReadDir(s.cfg.WALDir)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, e := range entries {
					names = append(names, e.Name())
				}
				if want := []string{"db.wal", "incarnation"}; !reflect.DeepEqual(names, want) {
					t.Fatalf("server %d: WAL directory holds %v, want %v", i, names, want)
				}
				log, err := wal.OpenFileLog(filepath.Join(s.cfg.WALDir, "db.wal"))
				if err != nil {
					t.Fatal(err)
				}
				kinds := make(map[wal.Kind]int)
				err = log.Replay(func(r wal.Record) error { kinds[r.Kind]++; return nil })
				log.Close()
				msgs, commits := kinds[wal.KindMessage], kinds[wal.KindCommit]
				if err != nil || commits > msgs || msgs > 6 || start == "quiescent" && commits != 6 {
					t.Fatalf("server %d: db.wal holds %v (%v), want 6 message and 6 commit records (no more, and no commit without its message, under traffic)", i, kinds, err)
				}
			}
		})
	}
}

// settle returns once every peer link is up and every start-up state transfer
// request has been answered.  A server asks its peers for a snapshot as it
// starts; answered with transactions already flowing, the snapshot makes a
// live replica step over messages it was about to deliver — legitimate, but
// such a replica logs no commit record for them.  Links are FIFO and a router handles its messages in
// order, so a ping behind the request and the pong behind its answer mean
// both have been processed.
func settle(t *testing.T, servers []*Server) {
	t.Helper()
	pongs := make(chan struct{}, len(servers)*len(servers))
	for _, s := range servers {
		router := s.Replica().Router()
		router.Handle("test.ping", func(m transport.Message) {
			_ = router.Send(m.From, transport.Message{Type: "test.pong"})
		})
		router.Handle("test.pong", func(transport.Message) { pongs <- struct{}{} })
	}
	for _, s := range servers {
		for _, peer := range servers {
			if peer != s {
				if err := s.Replica().Router().Send(peer.PeerAddr(), transport.Message{Type: "test.ping"}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < len(servers)*(len(servers)-1); i++ {
		select {
		case <-pongs:
		case <-time.After(10 * time.Second):
			t.Fatal("peer links did not come up")
		}
	}
}

// TestStartRefusesLegacyMessageLog: a WAL directory written by a version that
// kept the message log apart must not be started on silently.
func TestStartRefusesLegacyMessageLog(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "msg.wal")
	if err := os.WriteFile(legacy, []byte("records of an earlier version"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{ID: "127.0.0.1:1", Members: []string{"127.0.0.1:1"}, ClientAddr: "127.0.0.1:0", WALDir: dir, Level: core.Safety2, Logf: t.Logf}
	if srv, err := Start(cfg); err == nil || !strings.Contains(err.Error(), legacy) {
		if srv != nil {
			srv.Close()
		}
		t.Fatalf("Start over a legacy msg.wal: %v, want an error naming the file", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "db.wal")); !os.IsNotExist(err) {
		t.Fatalf("the refused start touched the WAL directory: %v", err)
	}
}
