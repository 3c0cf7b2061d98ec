package middleware

// HandleWire runs the platform's wire-protocol receive path at node as
// if data had arrived from peer: the fuzzing entry point of the
// external test package.
func (p *Platform) HandleWire(peer, node Addr, data []byte) error {
	atID, err := p.ensureRuntime(node)
	if err != nil {
		return err
	}
	peerID, err := p.ensureRuntime(peer)
	if err != nil {
		return err
	}
	srcLow := p.nodeLows[peerID]
	p.handleWire(peer, srcLow, atID, data)
	return nil
}
