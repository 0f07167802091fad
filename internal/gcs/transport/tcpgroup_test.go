package transport_test

import (
	"slices"
	"testing"
	"time"

	"groupsafe/internal/gcs"
	"groupsafe/internal/gcs/abcast"
	"groupsafe/internal/gcs/transport"
)

// TestTCPGroupOpensNoConnectionToSelf runs a three-member atomic broadcast
// group over real sockets — every member broadcasts, then a takeover — and
// checks what each process pays for it: exactly two outbound peer links, none
// to its own listen port (a member's own protocol steps are local).
func TestTCPGroupOpensNoConnectionToSelf(t *testing.T) {
	const n = 3
	eps := make([]*transport.TCPEndpoint, n)
	addrs := make([]string, n)
	for i := range eps {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i], addrs[i] = ep, ep.Addr()
	}
	bcs := make([]*abcast.Broadcaster, n)
	for i, ep := range eps {
		router := gcs.NewRouter(ep)
		bc, err := abcast.New(abcast.Config{Self: addrs[i], Members: addrs}, router)
		if err != nil {
			t.Fatal(err)
		}
		router.Start()
		t.Cleanup(func() {
			bc.Close()
			router.Stop()
		})
		bcs[i] = bc
	}
	deliverEverywhere := func(count int) {
		t.Helper()
		for i, bc := range bcs {
			for k := 0; k < count; k++ {
				select {
				case <-bc.Deliveries():
				case <-time.After(10 * time.Second):
					t.Fatalf("%s delivered %d of %d", addrs[i], k, count)
				}
			}
		}
	}

	for _, bc := range bcs {
		for k := 0; k < 5; k++ {
			if _, err := bc.Broadcast([]byte{byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliverEverywhere(5 * n)
	bcs[1].Suspect(addrs[0]) // a (false) suspicion: NEWEPOCH, STATE, re-announcement
	if _, err := bcs[2].Broadcast([]byte("after")); err != nil {
		t.Fatal(err)
	}
	deliverEverywhere(1)

	// A link opens on a member's first Send to that peer, and some frames
	// (the ACKs merged between non-sequencers) leave after the deliveries
	// awaited above: poll, within the same 10 s bound, until every member
	// holds both peer links.  A link to its own address fails at once.
	wants := make([][]string, n)
	for i := range eps {
		wants[i] = slices.Delete(slices.Clone(addrs), i, i+1)
		slices.Sort(wants[i])
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		settled, late := true, time.Now().After(deadline)
		for i, ep := range eps {
			got := ep.PeerAddrs()
			if slices.Contains(got, addrs[i]) {
				t.Fatalf("%s holds an outbound link to itself: %v", addrs[i], got)
			}
			if !slices.Equal(got, wants[i]) {
				settled = false
				if late {
					t.Errorf("%s holds outbound links to %v, want exactly its two peers %v", addrs[i], got, wants[i])
				}
			}
		}
		if settled || late {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
