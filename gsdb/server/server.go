// Package server is the public embedding API for running one gsdb replica as
// a standalone server process: the process form of the cluster that gsdb.Open
// runs in-memory.  The cmd/gsdb-server binary is a thin flag wrapper around
// this package; programs that want a replica inside their own process (custom
// supervision, tests, embedding) use it directly:
//
//	srv, err := server.Start(server.Config{
//		ID:         "10.0.0.1:7000",
//		Members:    []string{"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"},
//		ClientAddr: "10.0.0.1:8000",
//		WALDir:     "/var/lib/gsdb",
//		Level:      gsdb.GroupSafe,
//	})
//	if err != nil { ... }
//	defer srv.Close()
//
// Clients connect with gsdb.Dial to the ClientAddr of any replica.  See
// docs/OPERATIONS.md for topology, tuning and failure-handling guidance.
package server

import (
	"time"

	"groupsafe/gsdb"
	"groupsafe/internal/server"
)

// Config configures one replica server process.
type Config struct {
	// ID is this replica's peer address (host:port for replica-to-replica
	// traffic); it must appear in Members, which must be identical and
	// identically ordered on every replica.
	ID      string
	Members []string
	// ClientAddr is where gsdb.Dial clients connect (host:port; port 0 picks
	// a free port, see Server.ClientAddr).
	ClientAddr string
	// WALDir holds this replica's durable state, its write-ahead log.
	// Each replica needs its own directory.
	WALDir string
	// Level is the safety criterion.  Its zero value is gsdb.Safety0, an
	// unreplicated 0-safe server, so set it; the gsdb-server command's -level
	// flag defaults to group-safe.
	Level gsdb.SafetyLevel
	// Items is the database size (default 1024).
	Items int
	// ExecTimeout bounds one client transaction (default 10s).
	ExecTimeout time.Duration
	// HeartbeatInterval and SuspectTimeout tune the failure detector
	// (defaults 50ms / 4× the interval; raise both on WAN links).
	HeartbeatInterval time.Duration
	SuspectTimeout    time.Duration
	// ResyncInterval is how often a stalled replica re-pulls peer state to
	// close delivery gaps after a restart (default 1s).  A pull names the
	// puller's state, and only peers whose state differs answer it.
	ResyncInterval time.Duration
	// Logf receives operational log lines (default stderr).
	Logf func(format string, args ...interface{})
}

// Server is one running replica process.
type Server struct {
	inner *server.Server
}

// Start launches the replica: WAL replay, peer and client listeners, failure
// detection, membership and state transfer.  The returned server runs until
// Close.
func Start(cfg Config) (*Server, error) {
	inner, err := server.Start(toInternal(cfg))
	if err != nil {
		return nil, err
	}
	return &Server{inner: inner}, nil
}

// ClientAddr returns the bound client address (port 0 resolved).
func (s *Server) ClientAddr() string { return s.inner.ClientAddr() }

// PeerAddr returns the replica's peer address.
func (s *Server) PeerAddr() string { return s.inner.PeerAddr() }

// ViewID returns the identifier of the current membership view.
func (s *Server) ViewID() uint64 { return s.inner.View().ID }

// ViewMembers returns the members of the current membership view.
func (s *Server) ViewMembers() []string { return s.inner.View().Members }

// Close shuts the replica down gracefully: the client listener stops
// accepting, in-flight transactions finish (bounded by ExecTimeout), the
// write-ahead logs are forced, then the replica and its transports close.
func (s *Server) Close() error { return s.inner.Close() }
