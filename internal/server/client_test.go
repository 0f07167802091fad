package server

import (
	"bufio"
	"net"
	"testing"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/netproto"
	"groupsafe/internal/workload"
)

// startLoneServer starts one server of a group of three whose other two
// members never come up: its queries answer locally, its updates wait for a
// majority that does not exist — until ExecTimeout, or Close.
func startLoneServer(t *testing.T, execTimeout time.Duration) *Server {
	t.Helper()
	ports := freePorts(t, 4)
	srv, err := Start(Config{
		ID:          ports[0],
		Members:     ports[:3],
		ClientAddr:  ports[3],
		WALDir:      t.TempDir(),
		Level:       core.GroupSafe,
		Items:       64,
		ExecTimeout: execTimeout,
		Logf:        func(string, ...interface{}) {}, // (the dead peers' dial failures)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// rawClient is one client connection speaking netproto frames directly, so a
// test decides what is in flight on it.
type rawClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, srv *Server) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", srv.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	br := bufio.NewReader(conn)
	if err := netproto.WriteHandshake(conn); err != nil {
		t.Fatal(err)
	}
	if err := netproto.ReadHandshake(br); err != nil {
		t.Fatal(err)
	}
	return &rawClient{t: t, conn: conn, br: br}
}

func (c *rawClient) exec(corr uint64, op workload.Op) {
	c.t.Helper()
	req := core.Request{Ops: []workload.Op{op}}
	if err := netproto.WriteFrame(c.conn, netproto.Frame{CorrID: corr, Type: netproto.MsgExec, Payload: netproto.AppendRequest(nil, req)}); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawClient) read(within time.Duration) netproto.Frame {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(within))
	f, err := netproto.ReadFrame(c.br)
	if err != nil {
		c.t.Fatalf("no response within %v: %v", within, err)
	}
	return f
}

// TestWorkersAnswerBesideABlockedRequest: requests on one connection run
// side by side however many there are — none queues behind the update that
// waits for a majority — also when the workers that take them were parked by
// an earlier wave.
func TestWorkersAnswerBesideABlockedRequest(t *testing.T) {
	srv := startLoneServer(t, 30*time.Second)
	c := dialRaw(t, srv)
	const blocked, queries = 1, 8
	c.exec(blocked, workload.Op{Item: 1, Write: true, Value: 7})
	for wave := uint64(0); wave < 3; wave++ {
		for q := uint64(0); q < queries; q++ {
			c.exec(100*wave+10+q, workload.Op{Item: int(q)})
		}
		answered := make(map[uint64]bool)
		for len(answered) < queries {
			f := c.read(5 * time.Second)
			if f.CorrID == blocked || f.Type != netproto.MsgResult || answered[f.CorrID] {
				t.Fatalf("wave %d: unexpected response %+v", wave, f)
			}
			answered[f.CorrID] = true
		}
	}
}

// TestCloseFailsInFlightExecutes: Close cancels the requests in flight and
// waits for the workers that ran them, so it returns promptly — not after the
// ExecTimeout of the slowest one — and leaves no worker behind, parked or
// busy.
func TestCloseFailsInFlightExecutes(t *testing.T) {
	srv := startLoneServer(t, 30*time.Second)
	c := dialRaw(t, srv)
	c.exec(1, workload.Op{Item: 1, Write: true, Value: 7}) // in flight until the server closes
	c.exec(2, workload.Op{Item: 2})
	if f := c.read(5 * time.Second); f.CorrID != 2 { // both frames have been read: corr 1 is executing
		t.Fatalf("unexpected response %+v", f)
	}
	start := time.Now()
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close is waiting for an Execute it should have cancelled")
	}
	t.Logf("Close returned after %v", time.Since(start))
}

// TestShutdownContextKeepsExecTimeout: a request's context descends from the
// server's, and ExecTimeout still bounds it.
func TestShutdownContextKeepsExecTimeout(t *testing.T) {
	const execTimeout = 200 * time.Millisecond
	srv := startLoneServer(t, execTimeout)
	c := dialRaw(t, srv)
	start := time.Now()
	c.exec(1, workload.Op{Item: 1, Write: true, Value: 7})
	f := c.read(5 * time.Second)
	if f.Type != netproto.MsgError || len(f.Payload) == 0 || f.Payload[0] != netproto.CodeTimeout {
		t.Fatalf("response %+v, want a timeout error", f)
	}
	if waited := time.Since(start); waited < execTimeout {
		t.Fatalf("timed out after %v, ExecTimeout is %v", waited, execTimeout)
	}
}
