package floorcontrol

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/protocol"
)

// ProtoCallback is the asymmetric protocol solution of Figure 6(a),
// mirroring the callback-based middleware solution. PDUs:
//
//	request (subid, resid)
//	granted (resid)
//	free    (resid)
//
// A controller protocol entity centralizes coordination; subscriber
// protocol entities translate service primitives to PDUs and back. All of
// this lives behind the floor-control service boundary: the user parts
// never see it.
type ProtoCallback struct{}

var _ Solution = (*ProtoCallback)(nil)

// Name implements Solution.
func (*ProtoCallback) Name() string { return "proto-callback" }

// Paradigm implements Solution.
func (*ProtoCallback) Paradigm() Paradigm { return ParadigmProtocol }

// Style implements Solution.
func (*ProtoCallback) Style() Style { return StyleCallback }

// Figure implements Solution.
func (*ProtoCallback) Figure() string { return "Fig 6(a)" }

// Scattering implements Solution: the app parts contain no interaction
// functionality (they execute service primitives only); the interaction
// system comprises 3 subscriber-entity handlers and 3 controller-entity
// handlers.
func (*ProtoCallback) Scattering(n int) Scattering {
	return Scattering{InteractionSystemOps: 3 + 3}
}

// Build implements Solution.
func (s *ProtoCallback) Build(env *Env) (map[string]AppPart, error) {
	return buildProtocolSolution(env, s.Name(), func(layer *protocol.Layer) error {
		nm := newNames(env)
		ctrl := &callbackCtrlEntity{names: nm, q: newResourceQueue(env.Resources)}
		if err := layer.AddEntity(ctrlNode, ctrl); err != nil {
			return fmt.Errorf("floorcontrol: add controller entity: %w", err)
		}
		for _, sub := range env.Subscribers {
			if err := layer.AddEntity(protocol.Addr(sub), &callbackSubEntity{names: nm, controller: ctrlNode}); err != nil {
				return fmt.Errorf("floorcontrol: add subscriber entity %q: %w", sub, err)
			}
		}
		return nil
	})
}

// callbackSubEntity translates between service primitives and PDUs at one
// subscriber's access point.
type callbackSubEntity struct {
	names      names
	controller protocol.Addr
	ctx        *protocol.Context
}

var _ protocol.Entity = (*callbackSubEntity)(nil)

// Init implements protocol.Entity.
func (e *callbackSubEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity.
func (e *callbackSubEntity) FromUser(primitive string, params codec.Record) error {
	res, _ := params[ParamResource].(string)
	switch primitive {
	case PrimRequest:
		return sendResSub(e.ctx, e.controller, pduRequest, res)
	case PrimFree:
		return sendResSub(e.ctx, e.controller, pduFree, res)
	default:
		return fmt.Errorf("floorcontrol: unexpected primitive %q", primitive)
	}
}

// FromPeer implements protocol.Entity.
func (e *callbackSubEntity) FromPeer(_ protocol.Addr, pdu codec.MsgView) error {
	if !pdu.NameIs("granted") {
		return fmt.Errorf("floorcontrol: unexpected PDU %q at subscriber entity", pdu.Name())
	}
	res, _ := pdu.Str(ParamResource)
	e.ctx.DeliverToUser(PrimGranted, codec.Record{ParamResource: e.names.str(res)})
	return nil
}

// callbackCtrlEntity is the controller protocol entity: holder and FIFO
// queue per resource, granting by PDU.
type callbackCtrlEntity struct {
	names names
	ctx   *protocol.Context

	q *resourceQueue
}

var _ protocol.Entity = (*callbackCtrlEntity)(nil)

// Init implements protocol.Entity.
func (e *callbackCtrlEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity: the controller has no local user.
func (e *callbackCtrlEntity) FromUser(primitive string, _ codec.Record) error {
	return fmt.Errorf("floorcontrol: controller entity has no service user (got %q)", primitive)
}

// FromPeer implements protocol.Entity.
func (e *callbackCtrlEntity) FromPeer(src protocol.Addr, pdu codec.MsgView) error {
	subB, _ := pdu.Str("subid")
	resB, _ := pdu.Str(ParamResource)
	sub, res := e.names.str(subB), e.names.str(resB)
	switch string(pdu.Name()) {
	case "request":
		if !e.q.known(res) {
			return fmt.Errorf("floorcontrol: request for unknown resource %q", res)
		}
		granted := e.q.tryAcquire(sub, res)
		if !granted {
			e.q.enqueue(sub, res)
		}
		if granted {
			return e.grant(sub, res)
		}
		return nil
	case "free":
		next, ok, err := e.q.release(sub, res)
		if err != nil {
			return err
		}
		if ok {
			return e.grant(next, res)
		}
		return nil
	default:
		return fmt.Errorf("floorcontrol: unexpected PDU %q at controller entity from %s", pdu.Name(), src)
	}
}

func (e *callbackCtrlEntity) grant(sub, res string) error {
	buf := codec.GetBuffer()
	enc := pduGranted.Encoder(buf.B[:0])
	enc.Str(ParamResource, res)
	return sendPDU(e.ctx, protocol.Addr(sub), buf, &enc)
}
