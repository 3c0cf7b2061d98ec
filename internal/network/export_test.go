package network

// LivePayloads reports how many shared payloads a pending delivery still
// references: one per send call with deliveries in flight, zero once
// every delivery has been handled.
func (n *Network) LivePayloads() int {
	return n.livePayloads
}
