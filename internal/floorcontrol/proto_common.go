package floorcontrol

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/protocol"
)

// serviceAppPart is THE application part of every protocol-centred
// solution. It is written once, against the floor-control service
// (core.Provider), and is reused unchanged by the callback, polling and
// token protocols — the executable form of the paper's §5 claim that "the
// design of the application is not influenced by the choice of a protocol
// solution (the presented protocol solutions provide the same service)".
type serviceAppPart struct {
	provider core.Provider
	sap      core.SAP

	pending map[string]func() // resource → completion
}

var _ AppPart = (*serviceAppPart)(nil)

// newServiceAppPart attaches the part to its SAP.
func newServiceAppPart(provider core.Provider, sap core.SAP) *serviceAppPart {
	p := &serviceAppPart{provider: provider, sap: sap, pending: make(map[string]func())}
	provider.Attach(sap, p.onPrimitive)
	return p
}

func (p *serviceAppPart) onPrimitive(primitive string, params codec.Record) {
	if primitive != PrimGranted {
		return
	}
	res, _ := params[ParamResource].(string)
	done := p.pending[res]
	delete(p.pending, res)
	if done != nil {
		done()
	}
}

// Acquire implements AppPart by executing the request primitive.
func (p *serviceAppPart) Acquire(res string, done func()) {
	p.pending[res] = done
	if err := p.provider.Submit(p.sap, PrimRequest, codec.Record{ParamResource: res}); err != nil {
		panic(fmt.Sprintf("floorcontrol: request at %s: %v", p.sap, err))
	}
}

// Release implements AppPart by executing the free primitive.
func (p *serviceAppPart) Release(res string) {
	if err := p.provider.Submit(p.sap, PrimFree, codec.Record{ParamResource: res}); err != nil {
		panic(fmt.Sprintf("floorcontrol: free at %s: %v", p.sap, err))
	}
}

// Compiled PDU layouts of the three protocol solutions (Figure 6). Field
// types match the protocol's historical map encodings byte for byte.
var (
	pduRequest = codec.CompileSchema("request", ParamResource, "subid")
	pduFree    = codec.CompileSchema("free", ParamResource, "subid")
	pduGranted = codec.CompileSchema("granted", ParamResource)
	pduProbe   = codec.CompileSchema("is_available_req", ParamResource, "subid")
	pduAvail   = codec.CompileSchema("is_available_resp", "available", ParamResource)
	pduPass    = codec.CompileSchema("pass", "available")
)

// sendResSub sends a (resid, subid) PDU of the given layout to dst. The
// PDU is encoded into a pooled buffer that the lower service copies
// before SendPDU returns.
func sendResSub(ctx *protocol.Context, dst protocol.Addr, pdu *codec.Schema, res string) error {
	buf := codec.GetBuffer()
	e := pdu.Encoder(buf.B[:0])
	e.Str(ParamResource, res)
	e.Str("subid", string(ctx.Self()))
	return sendPDU(ctx, dst, buf, &e)
}

// sendPDU completes a PDU encoded into buf and transmits it to dst,
// recycling buf either way.
func sendPDU(ctx *protocol.Context, dst protocol.Addr, buf *codec.Buffer, e *codec.Encoder) error {
	data, err := e.Finish()
	if err == nil {
		err = ctx.SendPDU(dst, data)
		buf.B = data
	}
	buf.Release()
	return err
}

// buildProtocolSolution is the shared assembly for the three protocol
// solutions: create the layer, install entities, bind SAPs, wrap the
// service boundary with conformance observation, and hand every
// subscriber the same generic app part.
func buildProtocolSolution(env *Env, name string, install func(layer *protocol.Layer) error) (map[string]AppPart, error) {
	if env.Lower == nil {
		return nil, fmt.Errorf("floorcontrol: %s requires a lower-level service", name)
	}
	layer := protocol.NewLayer(name, env.Time, env.Lower)
	env.Layer = layer
	if err := install(layer); err != nil {
		return nil, err
	}
	binding := protocol.NewServiceBinding(layer)
	for _, sub := range env.Subscribers {
		if err := binding.Bind(SubscriberSAP(sub), protocol.Addr(sub)); err != nil {
			return nil, fmt.Errorf("floorcontrol: bind SAP %q: %w", sub, err)
		}
	}
	provider := ObserveProvider(binding, env.Observer)
	parts := make(map[string]AppPart, len(env.Subscribers))
	for _, sub := range env.Subscribers {
		parts[sub] = newServiceAppPart(provider, SubscriberSAP(sub))
	}
	return parts, nil
}
