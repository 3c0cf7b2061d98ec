package chat

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/sim"
)

// SequencerAddr is the hosting address of the sequencer entity.
const SequencerAddr protocol.Addr = "sequencer"

// PDU names of the sequencer protocol.
const (
	pduSubmit  = "submit"
	pduOrdered = "ordered"
)

// schemaOrdered is the compiled layout of the sequencer's broadcast.
var schemaOrdered = codec.CompileSchema(pduOrdered, ParamMsgID, ParamSpeaker, ParamText)

// SequencerEntity is the protocol's central entity: it imposes the total
// order by broadcasting utterances in arrival order.
type SequencerEntity struct {
	ctx     *protocol.Context
	members []protocol.Addr
}

var _ protocol.Entity = (*SequencerEntity)(nil)

// NewSequencerEntity creates the sequencer for a fixed member set.
func NewSequencerEntity(members []protocol.Addr) *SequencerEntity {
	return &SequencerEntity{members: append([]protocol.Addr(nil), members...)}
}

// Init implements protocol.Entity.
func (e *SequencerEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity; the sequencer serves no SAP.
func (e *SequencerEntity) FromUser(primitive string, _ codec.Record) error {
	return fmt.Errorf("chat: sequencer has no service user (got %q)", primitive)
}

// FromPeer implements protocol.Entity. The ordered broadcast splices the
// submitted message id and text out of the incoming PDU verbatim, is
// encoded once, and fans out to every member through SendPDUMulti,
// instead of re-marshalling the same PDU per member.
func (e *SequencerEntity) FromPeer(src protocol.Addr, pdu codec.MsgView) error {
	if !pdu.NameIs(pduSubmit) {
		return fmt.Errorf("chat: unexpected PDU %q at sequencer", pdu.Name())
	}
	msgID, ok := pdu.Raw(ParamMsgID)
	if !ok {
		msgID = codec.RawNil
	}
	text, ok := pdu.Raw(ParamText)
	if !ok {
		text = codec.RawNil
	}
	buf := codec.GetBuffer()
	defer buf.Release()
	enc := schemaOrdered.Encoder(buf.B[:0])
	enc.Raw(ParamMsgID, msgID)
	enc.Str(ParamSpeaker, string(src))
	enc.Raw(ParamText, text)
	data, err := enc.Finish()
	if err != nil {
		return err
	}
	buf.B = data
	return e.ctx.SendPDUMulti(e.members, data)
}

// ParticipantEntity translates between chat primitives and the sequencer
// protocol at one SAP.
type ParticipantEntity struct {
	ctx       *protocol.Context
	sequencer protocol.Addr
}

var _ protocol.Entity = (*ParticipantEntity)(nil)

// NewParticipantEntity creates a participant entity bound to a sequencer.
func NewParticipantEntity(sequencer protocol.Addr) *ParticipantEntity {
	return &ParticipantEntity{sequencer: sequencer}
}

// Init implements protocol.Entity.
func (e *ParticipantEntity) Init(ctx *protocol.Context) error {
	e.ctx = ctx
	return nil
}

// FromUser implements protocol.Entity.
func (e *ParticipantEntity) FromUser(primitive string, params codec.Record) error {
	if primitive != PrimSay {
		return fmt.Errorf("chat: unexpected primitive %q", primitive)
	}
	buf := codec.GetBuffer()
	defer buf.Release()
	data, err := codec.AppendMessage(buf.B[:0], codec.Message{Name: pduSubmit, Fields: params})
	if err != nil {
		return err
	}
	buf.B = data
	return e.ctx.SendPDU(e.sequencer, data)
}

// FromPeer implements protocol.Entity. The delivered utterance crosses
// the service boundary as a parameter record, so it is materialized
// here (copied out of the delivery buffer).
func (e *ParticipantEntity) FromPeer(_ protocol.Addr, pdu codec.MsgView) error {
	if !pdu.NameIs(pduOrdered) {
		return fmt.Errorf("chat: unexpected PDU %q at participant", pdu.Name())
	}
	params, err := pdu.Fields()
	if err != nil {
		return err
	}
	e.ctx.DeliverToUser(PrimDeliver, params)
	return nil
}

// BuildProtocol assembles the sequencer protocol over lower for the given
// participant ids, returning the service boundary (bound per SAP) and the
// layer for statistics.
func BuildProtocol(kernel *sim.Kernel, lower protocol.LowerService, participants []string) (core.Provider, *protocol.Layer, error) {
	layer := protocol.NewLayer("ordered-chat", kernel, lower)
	members := make([]protocol.Addr, len(participants))
	for i, p := range participants {
		members[i] = protocol.Addr(p)
	}
	if err := layer.AddEntity(SequencerAddr, NewSequencerEntity(members)); err != nil {
		return nil, nil, fmt.Errorf("chat: add sequencer: %w", err)
	}
	for _, m := range members {
		if err := layer.AddEntity(m, NewParticipantEntity(SequencerAddr)); err != nil {
			return nil, nil, fmt.Errorf("chat: add participant %q: %w", m, err)
		}
	}
	binding := protocol.NewServiceBinding(layer)
	for i, p := range participants {
		if err := binding.Bind(ParticipantSAP(p), members[i]); err != nil {
			return nil, nil, fmt.Errorf("chat: bind %q: %w", p, err)
		}
	}
	return binding, layer, nil
}
