package transport

import "sort"

// PeerAddrs exposes to the package's external tests which peers the endpoint
// holds an outbound link to (a link is opened by the first Send to a peer).
func (ep *TCPEndpoint) PeerAddrs() []string {
	var addrs []string
	for addr := range *ep.peers.Load() {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	return addrs
}
