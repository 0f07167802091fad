// Command gsdb-server runs one replica of the replicated database as a
// standalone process.  Start one per replica, give every process the same
// -peers list, and point gsdb.Dial clients at the -client-listen addresses:
//
//	gsdb-server -listen 127.0.0.1:7001 -client-listen 127.0.0.1:8001 \
//	    -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	    -level group-safe -wal-dir /var/lib/gsdb/r1
//
// -id and -listen are synonyms: a replica's identity IS its peer listen
// address (host:port), and it must appear verbatim in every replica's -peers
// list.  Set either one.  Every flag can also come from the environment
// (GSDB_LISTEN, GSDB_PEERS, ... — the flag name upper-cased, dashes to
// underscores); explicit flags win.  Every replica runs the certification
// engine and -level is its only replication setting: a GSDB_TECHNIQUE other
// than "certification" (a lazy-primary deployment's) is refused with exit 1.
//
// The process exits 0 on SIGINT/SIGTERM after a graceful shutdown: the client
// listener drains, in-flight transactions finish, and the write-ahead logs
// are forced.  A kill -9 is also safe — committed state is rebuilt from the
// WAL on restart, and the replica re-joins the group as a new life.
//
// See docs/OPERATIONS.md for topology, tuning and failure-handling guidance.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"groupsafe/gsdb"
	"groupsafe/gsdb/server"
)

func main() {
	var (
		id           = flag.String("id", "", "this replica's peer listen address; must appear in -peers (synonym of -listen)")
		listen       = flag.String("listen", "", "peer listen address (host:port for replica-to-replica traffic; synonym of -id)")
		clientListen = flag.String("client-listen", "", "client listen address (host:port for gsdb.Dial clients)")
		peers        = flag.String("peers", "", "comma-separated peer addresses of ALL replicas, identical on every replica")
		walDir       = flag.String("wal-dir", "", "directory for this replica's write-ahead log (db.wal)")
		levelFlag    = flag.String("level", "group-safe", "safety level: 0-safe | 1-safe-lazy | group-safe | group-1-safe | 2-safe | very-safe")
		items        = flag.Int("items", 1024, "database size (identical on every replica)")
		execTimeout  = flag.Duration("exec-timeout", 10*time.Second, "per-transaction execution timeout")
		fdInterval   = flag.Duration("fd-interval", 50*time.Millisecond, "failure detector heartbeat interval")
		fdTimeout    = flag.Duration("fd-timeout", 0, "silence after which a peer is suspected (default 4x fd-interval)")
		resync       = flag.Duration("resync-interval", time.Second, "stall interval after which peer state is re-pulled")
	)
	if err := techniqueEnvError(); err != nil {
		fatalf("%v", err)
	}
	flag.VisitAll(func(f *flag.Flag) {
		if err := envDefault(f); err != nil {
			fatalf("%v", err)
		}
	})
	flag.Parse()

	peerList := splitPeers(*peers)
	if len(peerList) == 0 {
		fatalf("-peers is required (comma-separated list of every replica's peer address)")
	}
	self := *id
	if self == "" {
		self = *listen
	}
	if self == "" {
		fatalf("-id or -listen is required")
	}
	if *clientListen == "" {
		fatalf("-client-listen is required")
	}
	if *walDir == "" {
		fatalf("-wal-dir is required")
	}
	level, err := gsdb.ParseLevel(*levelFlag)
	if err != nil {
		fatalf("%v", err)
	}
	srv, err := server.Start(server.Config{
		ID:                self,
		Members:           peerList,
		ClientAddr:        *clientListen,
		WALDir:            *walDir,
		Level:             level,
		Items:             *items,
		ExecTimeout:       *execTimeout,
		HeartbeatInterval: *fdInterval,
		SuspectTimeout:    *fdTimeout,
		ResyncInterval:    *resync,
	})
	if err != nil {
		fatalf("start: %v", err)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "gsdb-server: received %v, shutting down\n", sig)
	if err := srv.Close(); err != nil {
		fatalf("shutdown: %v", err)
	}
}

// envDefault seeds a flag's default from GSDB_<NAME> when the variable is
// set (a value the flag cannot parse is an error), so containers need no argv.
func envDefault(f *flag.Flag) error {
	key := "GSDB_" + strings.ToUpper(strings.ReplaceAll(f.Name, "-", "_"))
	if v, ok := os.LookupEnv(key); ok {
		if err := f.Value.Set(v); err != nil {
			return fmt.Errorf("%s=%q: %v", key, v, err)
		}
		f.DefValue = v
	}
	return nil
}

// techniqueEnvError refuses a leftover GSDB_TECHNIQUE: every replica runs
// the certification engine, so any other value names a deployment this
// binary would otherwise silently serve at the wrong guarantee.
func techniqueEnvError() error {
	if v, ok := os.LookupEnv("GSDB_TECHNIQUE"); ok && v != "certification" {
		return fmt.Errorf("GSDB_TECHNIQUE=%q: every replica runs the certification engine; "+
			"select the lazy 1-safe baseline with GSDB_LEVEL=1-safe-lazy", v)
	}
	return nil
}

func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "gsdb-server: "+format+"\n", args...)
	os.Exit(1)
}
