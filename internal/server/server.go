// Package server runs one replica of the replicated database as a standalone
// OS process: the in-process replica engine of internal/core attached to real
// TCP sockets (internal/gcs/transport.TCPNode), file-backed write-ahead logs
// that survive kill -9, a heartbeat failure detector whose suspicions make
// the membership views, pull-based state transfer for rejoining replicas, and
// a client listener speaking the internal/netproto protocol to gsdb.Dial
// clients.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/gcs/fd"
	"groupsafe/internal/gcs/transport"
	"groupsafe/internal/wal"
)

// Router message types of the server layer's pull-based state transfer.
const (
	// msgPull asks a peer for its current state snapshot; it carries the
	// puller's statePair, and a peer holding the same pair does not answer.
	msgPull = "srv.pull"
	// msgSnap carries a peer's encoded snapshot back.
	msgSnap = "srv.snap"
)

// Config configures one server process.
type Config struct {
	// ID is this replica's peer address (host:port it listens on for
	// replica-to-replica traffic).  It must appear in Members.
	ID string
	// Members lists every replica's peer address, identically ordered on all
	// replicas.
	Members []string
	// ClientAddr is the address the client listener binds (host:port).
	ClientAddr string
	// WALDir holds the durable state: the replica's one log, db.wal
	// (database, broadcast message and id mark records).  Created if missing.
	WALDir string
	// Level is the safety criterion, as in core.ReplicaConfig; the zero value
	// is core.Safety0.
	Level core.SafetyLevel
	// Items is the database size.
	Items int
	// ExecTimeout bounds one client transaction (default 10s).
	ExecTimeout time.Duration
	// HeartbeatInterval and SuspectTimeout tune the heartbeat failure
	// detector (defaults in fd.Config).  The detector is always on in a
	// server process: it feeds both the broadcaster's suspicion mechanism
	// and the membership views.
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
	// ResyncInterval is how often a stalled replica re-pulls a peer snapshot
	// to close gaps left by messages sent while it was down (default 1s).
	// Only peers whose state differs from the puller's answer.
	ResyncInterval time.Duration
	// Logf receives operational log lines (default os.Stderr via fmt).
	Logf func(format string, args ...interface{})
}

func (c *Config) applyDefaults() error {
	if c.ID == "" || len(c.Members) == 0 {
		return errors.New("server: ID and Members are required")
	}
	if c.ClientAddr == "" {
		return errors.New("server: ClientAddr is required")
	}
	if c.WALDir == "" {
		return errors.New("server: WALDir is required")
	}
	if c.ExecTimeout <= 0 {
		c.ExecTimeout = 10 * time.Second
	}
	if c.ResyncInterval <= 0 {
		c.ResyncInterval = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return nil
}

// Server is one running replica process.
type Server struct {
	cfg     Config
	node    *transport.TCPNode
	replica *core.Replica
	dbLog   *wal.FileLog

	clientLn net.Listener

	// viewID counts the view changes; suspected holds the peers the failure
	// detector currently suspects (see View).
	viewMu    sync.Mutex
	viewID    uint64
	suspected map[string]bool

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// ctx is the server's lifetime and the parent of every request's context:
	// Close cancels it, which stops the loops and fails the Executes in flight.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // client handlers and their workers + accept loop + resync loop
}

// Start builds and runs a server process: it opens the WAL, binds the peer
// and client listeners, starts the replica engine over the WAL (a new life,
// named by the log's id mark), replays logged end-to-end messages, pulls a
// state snapshot from its peers and begins serving.
func Start(cfg Config) (*Server, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: create WAL dir: %w", err)
	}
	// Earlier versions logged broadcast messages apart.  That log cannot be
	// read here, and starting without it would silently drop what it holds.
	legacy := filepath.Join(cfg.WALDir, "msg.wal")
	if info, err := os.Stat(legacy); err == nil && info.Size() > 0 {
		return nil, fmt.Errorf("server: %s is the separate message log of an earlier version and cannot be imported (messages are now logged in db.wal): start this replica on an empty WAL directory so it rejoins by state transfer, or remove the file to give up the messages in it", legacy)
	}
	s := &Server{
		cfg:       cfg,
		conns:     make(map[net.Conn]struct{}),
		suspected: make(map[string]bool),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	s.node = transport.NewTCPNode(transport.TCPConfig{Logf: cfg.Logf})
	if _, err := s.node.Listen(cfg.ID); err != nil {
		return nil, fmt.Errorf("server: peer listener: %w", err)
	}

	var err error
	s.dbLog, err = wal.OpenFileLog(filepath.Join(cfg.WALDir, "db.wal"))
	if err != nil {
		s.node.Close()
		return nil, fmt.Errorf("server: open WAL: %w", err)
	}
	if err := migrateIncarnation(cfg.WALDir, s.dbLog); err != nil {
		s.teardown()
		return nil, fmt.Errorf("server: migrate incarnation file: %w", err)
	}
	if err := syncDir(cfg.WALDir); err != nil { // db.wal may be new, incarnation gone
		s.teardown()
		return nil, fmt.Errorf("server: sync WAL dir: %w", err)
	}

	s.replica, err = core.NewReplica(core.ReplicaConfig{
		ID:              cfg.ID,
		Members:         cfg.Members,
		Items:           cfg.Items,
		Level:           cfg.Level,
		Network:         s.node,
		DBLog:           s.dbLog,
		ExecTimeout:     cfg.ExecTimeout,
		Detector:        fd.Config{Interval: cfg.HeartbeatInterval, Timeout: cfg.SuspectTimeout},
		OnDetectorEvent: s.onDetectorEvent,
	})
	if err != nil {
		s.teardown()
		return nil, err
	}

	// State transfer rides the replica's own router/endpoint, so it shares
	// the peer transport's reconnect machinery.
	router := s.replica.Router()
	router.Handle(msgPull, s.onPull)
	router.Handle(msgSnap, s.onSnap)

	if n, err := s.replica.ReplayLoggedMessages(); err != nil {
		s.cfg.Logf("server %s: end-to-end replay failed: %v", cfg.ID, err)
	} else if n > 0 {
		s.cfg.Logf("server %s: replayed %d logged broadcast messages", cfg.ID, n)
	}

	s.clientLn, err = net.Listen("tcp", cfg.ClientAddr)
	if err != nil {
		s.replica.Close()
		s.teardown()
		return nil, fmt.Errorf("server: client listener: %w", err)
	}

	// Ask every peer for a snapshot now that our endpoint is listening: a
	// rejoining replica catches up on everything it missed while dead (the
	// sequencer does not retransmit old ORDERs).  Responses install
	// monotonically, so answers from several peers are all safe.
	s.pullFromPeers()

	s.wg.Add(2)
	go s.acceptLoop()
	go s.resyncLoop()

	s.cfg.Logf("server %s: serving clients on %s (level %s)",
		cfg.ID, s.ClientAddr(), cfg.Level)
	return s, nil
}

// ClientAddr returns the bound client listener address (with port 0
// resolved).
func (s *Server) ClientAddr() string {
	if s.clientLn == nil {
		return s.cfg.ClientAddr
	}
	return s.clientLn.Addr().String()
}

// PeerAddr returns this replica's peer address.
func (s *Server) PeerAddr() string { return s.cfg.ID }

// View is a membership view of the group as this server sees it.
type View struct {
	// ID counts the view changes this server has seen.
	ID uint64
	// Members lists the members not suspected, self included, sorted.
	Members []string
}

// View returns the current membership view.  Views are local: they come from
// this server's failure detector, not from the total order, so two servers
// may number the same view differently.
func (s *Server) View() View {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	v := View{ID: s.viewID}
	for _, m := range s.cfg.Members {
		if !s.suspected[m] {
			v.Members = append(v.Members, m)
		}
	}
	sort.Strings(v.Members)
	return v
}

// Replica exposes the underlying replica engine (tests).
func (s *Server) Replica() *core.Replica { return s.replica }

// onDetectorEvent turns failure detector transitions into view changes: a
// suspected peer leaves the view, a heartbeat from it re-admits it, and each
// change gets the next view ID.  The broadcaster was already informed by the
// replica's own wiring.
func (s *Server) onDetectorEvent(ev fd.Event) {
	s.viewMu.Lock()
	changed := s.suspected[ev.Peer] != ev.Suspected
	if changed {
		s.suspected[ev.Peer] = ev.Suspected
		s.viewID++
	}
	s.viewMu.Unlock()
	if changed {
		s.cfg.Logf("server %s: %s suspected=%v -> view %+v", s.cfg.ID, ev.Peer, ev.Suspected, s.View())
	}
}

// onPull answers a peer's state transfer request with our snapshot, unless
// the request names the state we hold ourselves.
func (s *Server) onPull(m transport.Message) {
	snap := s.replica.Snapshot()
	if p, err := decodePull(m.Payload); err == nil && p == pairOf(snap) {
		return
	}
	router := s.replica.Router()
	if router == nil {
		return
	}
	if err := router.Send(m.From, transport.Message{Type: msgSnap, Payload: appendSnapshot(nil, snap)}); err != nil {
		s.cfg.Logf("server %s: snapshot to %s failed: %v", s.cfg.ID, m.From, err)
	}
}

// onSnap merges a received snapshot.  The replica is live (it may be
// applying deliveries right now), so this must use the concurrent-safe
// per-item newest-version merge — MergeSnapshot — not the restore Recover
// installs a snapshot with, which would revert any install racing with it.
// Stale or duplicate snapshots are no-ops.
func (s *Server) onSnap(m transport.Message) {
	snap, err := decodeSnapshot(m.Payload)
	if err != nil {
		s.cfg.Logf("server %s: bad snapshot from %s: %v", s.cfg.ID, m.From, err)
		return
	}
	before := s.replica.LastAppliedSeq()
	merged := s.replica.MergeSnapshot(snap)
	if after := s.replica.LastAppliedSeq(); merged > 0 || after > before {
		s.cfg.Logf("server %s: merged snapshot from %s (%d items, seq %d -> %d)",
			s.cfg.ID, m.From, merged, before, after)
	}
}

// pullFromPeers broadcasts a state transfer request, naming the state this
// replica holds, to every peer.
func (s *Server) pullFromPeers() {
	router := s.replica.Router()
	if router == nil {
		return
	}
	pull := appendPull(nil, pairOf(s.replica.Snapshot()))
	for _, peer := range s.cfg.Members {
		if peer == s.cfg.ID {
			continue
		}
		router.Send(peer, transport.Message{Type: msgPull, Payload: pull})
	}
}

// resyncLoop re-pulls peer snapshots whenever the replica's applied sequence
// stalls: a replica that was dead while ORDER messages flowed has a delivery
// gap the sequencer will never refill, and only a snapshot can close it.
// Pulling on stall rather than on a detected gap is deliberately coarse:
// installs are monotone merges, and a peer answers only when its state
// differs, so an idle group whose replicas agree ships no snapshots.
func (s *Server) resyncLoop() {
	defer s.wg.Done()
	last := s.replica.LastAppliedSeq()
	ticker := time.NewTicker(s.cfg.ResyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			now := s.replica.LastAppliedSeq()
			if now == last {
				s.pullFromPeers()
			}
			last = now
		}
	}
}

// Close shuts the server down gracefully: stop accepting clients, let
// in-flight transactions finish, force the WAL, then tear the replica and
// transports down.  Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	s.cancel()
	if s.clientLn != nil {
		s.clientLn.Close()
	}
	// Drain: client handlers exit on their own (their reads fail once the
	// peer closes, their Executes were cancelled just above) — but nudge
	// them by closing the connections, then wait.
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()

	// Force everything appended so far; closing the replica closes the log.
	err := errors.Join(s.dbLog.Sync(), s.replica.Close())
	s.teardown()
	s.cfg.Logf("server %s: shut down", s.cfg.ID)
	return err
}

// teardown releases the peer transport and the log (idempotent: after a
// clean shutdown the replica has closed the log already, via db.Close).
func (s *Server) teardown() {
	s.node.Close()
	if err := s.dbLog.Close(); err != nil {
		s.cfg.Logf("server %s: close WAL: %v", s.cfg.ID, err)
	}
}

// migrateIncarnation turns an earlier version's incarnation file, k, into an
// id mark in the log: its lives j <= k used the abcast incarnation j<<20+1
// and ids from j<<20 up, so the mark (k+1)<<20 puts later lives above them.
// The file goes once the mark is durable; the caller syncs the directory.
func migrateIncarnation(dir string, log wal.Log) error {
	path := filepath.Join(dir, "incarnation")
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	k, err := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 32)
	if err != nil {
		return fmt.Errorf("corrupt incarnation file %s: %q", path, b)
	}
	if _, err := log.Append(wal.Record{Kind: wal.KindIDMark, TxnID: (k + 1) << 20}); err != nil {
		return err
	}
	if err := log.Sync(); err != nil {
		return err
	}
	return os.Remove(path)
}

// syncDir forces dir's entries to disk: a file created or renamed in it
// survives a power loss only after this.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
