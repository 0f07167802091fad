package server

import (
	"bufio"
	"context"
	"net"
	"sync"
	"time"

	"groupsafe/internal/netproto"
)

// This file is the client-facing half of the server: the accept loop and the
// per-connection protocol handlers for gsdb.Dial clients.  One connection
// multiplexes concurrent requests by correlation ID; each request runs on a
// goroutine of its own — a parked worker of the connection when one is free, a
// new one otherwise — so a slow very-safe commit never blocks a local read.

const clientHandshakeTimeout = 5 * time.Second

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.clientLn.Accept()
		if err != nil {
			select {
			case <-s.ctx.Done():
				return
			default:
			}
			s.cfg.Logf("server %s: accept: %v", s.cfg.ID, err)
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveClient(conn)
	}
}

func (s *Server) serveClient(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	conn.SetDeadline(time.Now().Add(clientHandshakeTimeout))
	br := bufio.NewReader(conn)
	if err := netproto.ReadHandshake(br); err != nil {
		s.cfg.Logf("server %s: client %s: %v", s.cfg.ID, conn.RemoteAddr(), err)
		return
	}
	if err := netproto.WriteHandshake(conn); err != nil {
		return
	}
	conn.SetDeadline(time.Time{})

	var wmu sync.Mutex // one writer lock per connection: responses interleave
	reply := func(f netproto.Frame) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := netproto.WriteFrame(conn, f); err != nil {
			conn.Close() // the read loop will notice and unwind
		}
	}

	// A worker that has answered parks on work and takes the next frame with
	// the stack it has already grown; the channel is unbuffered, so a frame is
	// handed over only to a worker that is waiting and never queues behind a
	// request in progress.  Workers end when the connection does.
	work := make(chan netproto.Frame)
	defer close(work)
	worker := func(f netproto.Frame) {
		defer s.wg.Done()
		s.handleFrame(f, reply)
		for f := range work {
			s.handleFrame(f, reply)
		}
	}
	for {
		f, err := netproto.ReadFrame(br)
		if err != nil {
			return // client went away (or shutdown closed the conn)
		}
		select {
		case work <- f:
		default:
			s.wg.Add(1)
			go worker(f)
		}
	}
}

func (s *Server) handleFrame(f netproto.Frame, reply func(netproto.Frame)) {
	switch f.Type {
	case netproto.MsgExec:
		req, err := netproto.DecodeRequest(f.Payload)
		if err != nil {
			reply(netproto.Frame{CorrID: f.CorrID, Type: netproto.MsgError, Payload: netproto.AppendError(nil, err)})
			return
		}
		ctx, cancel := context.WithTimeout(s.ctx, s.cfg.ExecTimeout)
		res, err := s.replica.Execute(ctx, req)
		cancel()
		if err != nil {
			reply(netproto.Frame{CorrID: f.CorrID, Type: netproto.MsgError, Payload: netproto.AppendError(nil, err)})
			return
		}
		reply(netproto.Frame{CorrID: f.CorrID, Type: netproto.MsgResult, Payload: netproto.AppendResult(nil, res)})

	case netproto.MsgInfo:
		reply(netproto.Frame{CorrID: f.CorrID, Type: netproto.MsgInfoResult, Payload: netproto.AppendInfo(nil, s.info())})

	default:
		reply(netproto.Frame{CorrID: f.CorrID, Type: netproto.MsgError,
			Payload: []byte{netproto.CodeGeneric, 0}})
	}
}

// info assembles the server status report.
func (s *Server) info() netproto.ServerInfo {
	view := s.View()
	items := s.replica.StoreItems()
	out := netproto.ServerInfo{
		ID:             s.cfg.ID,
		Crashed:        s.replica.Crashed(),
		ViewID:         view.ID,
		ViewMembers:    view.Members,
		LastAppliedSeq: s.replica.LastAppliedSeq(),
		DurableLSN:     s.replica.DurableLSN(),
		Items:          make([]netproto.ItemState, len(items)),
	}
	for i, it := range items {
		out.Items[i] = netproto.ItemState{Value: it.Value, Version: it.Version}
	}
	return out
}
