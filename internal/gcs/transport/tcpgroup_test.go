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

	for i, ep := range eps {
		want := slices.Clone(addrs)
		want = slices.Delete(want, i, i+1)
		slices.Sort(want)
		if got := ep.PeerAddrs(); !slices.Equal(got, want) {
			t.Errorf("%s holds outbound links to %v, want exactly its two peers %v", addrs[i], got, want)
		}
	}
}
