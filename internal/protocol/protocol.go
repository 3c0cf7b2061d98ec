// Package protocol implements the protocol-centred (telecom) paradigm of
// the paper's §2: protocol entities that "communicate with each other by
// exchanging messages, often called Protocol Data Units (PDUs), through a
// lower level service", assembled into layers whose upper boundary is a
// service in the sense of internal/core.
//
// The package provides:
//
//   - LowerService: the abstraction of a lower-level data-transfer service;
//   - IndexedLower: the optional dense-id extension every built-in service
//     implements, which makes steady-state delivery map-free;
//   - UnreliableDatagram: the raw simulated network as a lower service;
//   - ReliableDatagram: a go-back-N protocol layer that turns an unreliable
//     datagram service into reliable, in-order, exactly-once delivery — the
//     "(reliable datagram)" lower service the paper's Figure 6 assumes;
//   - Entity, Context and Layer: the framework for writing application
//     protocols (the floor-control protocols of Figure 6 are Entities) and
//     exposing the layer's upper boundary as a core.Provider.
package protocol

import (
	"errors"
	"fmt"

	"repro/internal/network"
)

// Addr identifies a protocol entity endpoint. Addresses coincide with
// simulated network node ids.
type Addr = network.NodeID

// Errors shared by lower-service implementations.
var (
	ErrDuplicate     = errors.New("protocol: address already attached")
	ErrUnknownEntity = errors.New("protocol: unknown entity address")
)

// Receiver consumes PDUs delivered by a lower service.
//
// The pdu slice may alias a pooled delivery buffer owned by the service
// below: it is valid only until the receiver returns. It is read-only:
// the network shares one copy among every destination and duplicate of
// a send, so a receiver that wrote into it would corrupt the PDU other
// receivers see. Receivers that keep PDU bytes beyond the call must
// copy them (codec's materializing decoders copy implicitly;
// codec.MsgView accessors alias).
type Receiver func(src Addr, pdu []byte)

// IndexedReceiver is the dense-plane Receiver: the source endpoint is
// identified by the small-int id the lower service assigned it (see
// IndexedLower). The same pdu aliasing and read-only contract as
// Receiver applies.
type IndexedReceiver func(src int32, pdu []byte)

// LowerService is the paper's "lower level service": it provides
// interconnection and data transfer between protocol entities. Reliability
// properties depend on the implementation.
type LowerService interface {
	// Name identifies the service for diagnostics and metrics.
	Name() string
	// Attach registers the receiver for PDUs addressed to addr.
	Attach(addr Addr, r Receiver) error
	// Send transfers an encoded PDU from src to dst. Implementations must
	// not retain pdu after returning (copy if queueing), so callers may
	// encode into reusable scratch buffers.
	Send(src, dst Addr, pdu []byte) error
}

// MultiSender is an optional LowerService extension for fan-out: sending
// one PDU to many destinations in a single call. Implementations must
// behave exactly as repeated Send calls in destination order (including
// randomness consumption, so traces stay deterministic), but may batch the
// underlying work. Callers should type-assert and fall back to a Send
// loop when the service does not implement it.
type MultiSender interface {
	SendMulti(src Addr, dsts []Addr, pdu []byte) error
}

// IndexedLower is the optional LowerService extension behind the repo's
// map-free delivery plane: endpoints receive dense small-int ids at
// attach time, receivers are handed source ids instead of names, and the
// id-addressed send paths do zero map lookups in steady state. Ids count
// up from zero, are assigned in attach (or first-sight) order, and stay
// valid for the service's lifetime.
//
// Callers type-assert and fall back to the name-addressed LowerService
// methods when the extension is absent — behaviour is identical either
// way (including randomness consumption), only the per-message lookup
// cost differs.
type IndexedLower interface {
	LowerService
	// AttachIndexed registers r for PDUs addressed to addr and returns
	// addr's dense endpoint id. Re-attaching replaces the receiver and
	// returns the same id.
	AttachIndexed(addr Addr, r IndexedReceiver) (int32, error)
	// EndpointID resolves an attached address to its dense id.
	EndpointID(addr Addr) (int32, bool)
	// EndpointAddr resolves a dense id back to its address ("" for ids
	// the service never issued).
	EndpointAddr(id int32) Addr
	// SendIndexed is Send with both endpoints named by dense id.
	SendIndexed(src, dst int32, pdu []byte) error
	// SendMultiIndexed is the id-addressed fan-out: identical semantics
	// to repeated SendIndexed calls in destination order.
	SendMultiIndexed(src int32, dsts []int32, pdu []byte) error
}

// IncarnationProvider is an optional LowerService extension for churn:
// services whose endpoints can crash and restart report a per-endpoint
// incarnation number (1-based, bumped on every restart). ReliableDatagram
// uses it to stamp PDUs with endpoint incarnations so peers detect
// restarts and tear down stale flow state instead of ghost-acking it.
type IncarnationProvider interface {
	// IncarnationOf returns the current incarnation of the endpoint with
	// the given dense id (0 for unknown ids).
	IncarnationOf(id int32) uint32
}

// UnreliableDatagram adapts the simulated network directly: datagrams may
// be lost, duplicated or reordered according to the link configuration
// ("send and pray", §2). Its dense endpoint ids are exactly the network's
// node slots, so the indexed paths forward with no translation at all
// and addresses resolve through the network's own slot map.
type UnreliableDatagram struct {
	net *network.Network
}

var (
	_ LowerService        = (*UnreliableDatagram)(nil)
	_ MultiSender         = (*UnreliableDatagram)(nil)
	_ IndexedLower        = (*UnreliableDatagram)(nil)
	_ IncarnationProvider = (*UnreliableDatagram)(nil)
)

// NewUnreliableDatagram wraps a simulated network as a lower service.
func NewUnreliableDatagram(net *network.Network) *UnreliableDatagram {
	return &UnreliableDatagram{net: net}
}

// Name implements LowerService.
func (u *UnreliableDatagram) Name() string { return "unreliable-datagram" }

// Attach implements LowerService. The address is registered as a network
// node on first attach.
func (u *UnreliableDatagram) Attach(addr Addr, r Receiver) error {
	if r == nil {
		return fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	_, err := u.AttachIndexed(addr, func(src int32, payload []byte) {
		r(u.net.IDOf(src), payload)
	})
	return err
}

// AttachIndexed implements IndexedLower. The returned id is the network
// slot of addr's node. A node that already exists — attached before, or
// registered outside this service — keeps its slot and has its handler
// taken over.
func (u *UnreliableDatagram) AttachIndexed(addr Addr, r IndexedReceiver) (int32, error) {
	if r == nil {
		return -1, fmt.Errorf("protocol: nil receiver for %q", addr)
	}
	h := network.SlotHandler(r)
	if slot, ok := u.net.SlotOf(addr); ok {
		return slot, u.net.SetSlotHandler(addr, h)
	}
	return u.net.Register(addr, h)
}

// EndpointID implements IndexedLower: every node of the network is an
// endpoint of this service.
func (u *UnreliableDatagram) EndpointID(addr Addr) (int32, bool) {
	return u.net.SlotOf(addr)
}

// EndpointAddr implements IndexedLower.
func (u *UnreliableDatagram) EndpointAddr(id int32) Addr {
	return u.net.IDOf(id)
}

// IncarnationOf implements IncarnationProvider: this service's dense ids
// are exactly the network's node slots, so the incarnation is the
// network node's.
func (u *UnreliableDatagram) IncarnationOf(id int32) uint32 {
	return u.net.IncarnationOfSlot(id)
}

// Send implements LowerService.
func (u *UnreliableDatagram) Send(src, dst Addr, pdu []byte) error {
	return u.net.Send(src, dst, pdu)
}

// SendIndexed implements IndexedLower on the network's slot plane.
func (u *UnreliableDatagram) SendIndexed(src, dst int32, pdu []byte) error {
	return u.net.SendSlot(src, dst, pdu)
}

// SendMulti implements MultiSender on the raw network's batch path: all
// deliveries of the fan-out are scheduled by one kernel ScheduleBatch call.
func (u *UnreliableDatagram) SendMulti(src Addr, dsts []Addr, pdu []byte) error {
	return u.net.SendMulti(src, dsts, pdu)
}

// SendMultiIndexed implements IndexedLower on the network's slot batch
// path.
func (u *UnreliableDatagram) SendMultiIndexed(src int32, dsts []int32, pdu []byte) error {
	return u.net.SendMultiSlot(src, dsts, pdu)
}
