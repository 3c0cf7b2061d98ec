// Code generated by sdlgen from floorcontrol.svc. DO NOT EDIT.

// Package floorcontrol is the generated Go binding of the "floor-control" service
// definition: the validated core.ServiceSpec, a compiled codec.Schema per
// primitive parameter record, and typed direction-aware service ports
// over internal/svc.
package floorcontrol

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/svc"
)

// ServiceName is the name of the source service definition.
const ServiceName = "floor-control"

// Role names.
const (
	RoleSubscriber = "subscriber"
)

// Primitive (wire operation) names.
const (
	PrimRequest = "request"
	PrimGranted = "granted"
	PrimFree    = "free"
)

// Compiled parameter-record layouts, one per primitive: the bare
// record a port call or oneway send carries as its arguments.
var (
	SchemaRequest = codec.CompileRecord("resid")
	SchemaGranted = codec.CompileRecord("resid")
	SchemaFree    = codec.CompileRecord("resid")
)

// Spec reconstructs the validated service specification.
func Spec() *core.ServiceSpec {
	return &core.ServiceSpec{
		Name:        ServiceName,
		Description: "coordinated exclusive access to named resources",
		Roles: []core.RoleDef{
			{Name: RoleSubscriber, Min: 2, Max: 0},
		},
		Primitives: []core.PrimitiveDef{
			{Name: PrimRequest, Direction: core.FromUser, Params: []core.ParamDef{
				{Name: "resid", Kind: core.KindString},
			}},
			{Name: PrimGranted, Direction: core.ToUser, Params: []core.ParamDef{
				{Name: "resid", Kind: core.KindString},
			}},
			{Name: PrimFree, Direction: core.FromUser, Params: []core.ParamDef{
				{Name: "resid", Kind: core.KindString},
			}},
		},
		Constraints: []core.Constraint{
			&core.Precedes{
				ConstraintName: "granted-follows-request",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimRequest,
				Enabled:        PrimGranted,
				Key:            core.KeySAPAndParam("resid"),
			},
			&core.Precedes{
				ConstraintName: "free-follows-granted",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimGranted,
				Enabled:        PrimFree,
				Key:            core.KeySAPAndParam("resid"),
			},
			&core.MutualExclusion{
				ConstraintName: "exclusive-grant",
				Acquire:        PrimGranted,
				Release:        PrimFree,
				Key:            core.KeyParam("resid"),
			},
			&core.EventuallyFollows{
				ConstraintName: "request-eventually-granted",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimRequest,
				Response:       PrimGranted,
				Key:            core.KeySAPAndParam("resid"),
			},
			&core.Absence{
				ConstraintName: "no-request-while-held",
				ScopeKind:      core.ScopeLocal,
				Open:           PrimGranted,
				Close:          PrimFree,
				Forbidden:      PrimRequest,
				Key:            core.KeySAPAndParam("resid"),
			},
		},
	}
}

// Service declares the typed service: the spec validated and every
// primitive's parameter record schema-compiled by internal/svc.
func Service() (*svc.Service, error) {
	return svc.New(Spec())
}

// Bind declares the service and binds it to platform p.
func Bind(p *middleware.Platform, patterns ...middleware.Pattern) (*svc.Binding, error) {
	s, err := Service()
	if err != nil {
		return nil, err
	}
	return s.Bind(p, patterns...)
}

// Ack is the empty acknowledgement every handled primitive replies
// with: the empty record on the wire (oneway deliveries elide it).
type Ack struct{}

// mistyped reports a parameter whose wire value has the wrong type.
func mistyped(v *codec.MsgView, prim, param, want string) error {
	got, _ := v.Value(param)
	return fmt.Errorf("%s: parameter %q: want %s, got %T", prim, param, want, got)
}

// RequestParams is the typed parameter record of primitive "request" (from-user).
type RequestParams struct {
	Resid string
}

// AppendRequestParams appends p's parameter record to buf through
// SchemaRequest: the argument record the "request" port or sink carries.
func AppendRequestParams(buf []byte, p RequestParams) ([]byte, error) {
	e := SchemaRequest.Encoder(buf)
	e.Str("resid", p.Resid)
	return e.Finish()
}

// DecodeRequestParams reads a "request" parameter record through a zero-copy
// view, copying strings out of it. Absent parameters decode to zero
// values; mistyped ones are rejected.
func DecodeRequestParams(v codec.MsgView) (RequestParams, error) {
	var p RequestParams
	if _, ok := v.Raw("resid"); ok {
		s, ok := v.Str("resid")
		if !ok {
			return p, mistyped(&v, "request", "resid", "string")
		}
		p.Resid = string(s)
	}
	return p, nil
}

// NewRequestPort opens a typed RPC port for primitive "request": the user part
// submits RequestParams to the provider object and the continuation
// receives the acknowledgement.
func NewRequestPort(b *svc.Binding, target middleware.ObjRef, opts ...svc.PortOption) (*svc.Port[RequestParams, Ack], error) {
	return svc.NewPort[RequestParams, Ack](b, target, PrimRequest, AppendRequestParams, nil, opts...)
}

// HandleRequest registers the provider-side handler for primitive "request" on
// export e.
func HandleRequest(e *svc.Export, h func(RequestParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimRequest, DecodeRequestParams, nil, h)
}

// GrantedParams is the typed parameter record of primitive "granted" (to-user).
type GrantedParams struct {
	Resid string
}

// AppendGrantedParams appends p's parameter record to buf through
// SchemaGranted: the argument record the "granted" port or sink carries.
func AppendGrantedParams(buf []byte, p GrantedParams) ([]byte, error) {
	e := SchemaGranted.Encoder(buf)
	e.Str("resid", p.Resid)
	return e.Finish()
}

// DecodeGrantedParams reads a "granted" parameter record through a zero-copy
// view, copying strings out of it. Absent parameters decode to zero
// values; mistyped ones are rejected.
func DecodeGrantedParams(v codec.MsgView) (GrantedParams, error) {
	var p GrantedParams
	if _, ok := v.Raw("resid"); ok {
		s, ok := v.Str("resid")
		if !ok {
			return p, mistyped(&v, "granted", "resid", "string")
		}
		p.Resid = string(s)
	}
	return p, nil
}

// EncodeGrantedParams marshals p into the generic parameter record the
// topic plane carries.
func EncodeGrantedParams(p GrantedParams) codec.Record {
	return codec.Record{
		"resid": p.Resid,
	}
}

// GrantedMessage wraps p as the named message the topic plane carries.
func GrantedMessage(p GrantedParams) codec.Message {
	return codec.Message{Name: PrimGranted, Fields: EncodeGrantedParams(p)}
}

// NewGrantedSink opens a typed oneway sink for primitive "granted": the provider
// delivers GrantedParams to a user-part object without awaiting a reply.
func NewGrantedSink(b *svc.Binding, target middleware.ObjRef, opts ...svc.PortOption) (*svc.Sink[GrantedParams], error) {
	return svc.NewOnewaySink(b, target, PrimGranted, AppendGrantedParams, opts...)
}

// NewGrantedTopicSink opens a typed publisher of "granted" events on topic.
func NewGrantedTopicSink(b *svc.Binding, topic string, opts ...svc.PortOption) (*svc.Sink[GrantedParams], error) {
	opts = append([]svc.PortOption{svc.WithPrimitive(PrimGranted)}, opts...)
	return svc.NewTopicSink(b, topic, GrantedMessage, opts...)
}

// DecodeGrantedView decodes a published "granted" event from the zero-copy
// delivery plane.
func DecodeGrantedView(v codec.MsgView) (GrantedParams, error) {
	fields, ok := v.RecordView("fields")
	if !ok {
		return GrantedParams{}, fmt.Errorf("granted: event carries no parameter record")
	}
	return DecodeGrantedParams(fields)
}

// NewGrantedTopicSource subscribes node to "granted" events on topic, delivering
// decoded parameters to fn.
func NewGrantedTopicSource(b *svc.Binding, topic string, node middleware.Addr, fn func(GrantedParams), opts ...svc.PortOption) (*svc.Source[GrantedParams], error) {
	opts = append([]svc.PortOption{svc.WithPrimitive(PrimGranted)}, opts...)
	return svc.NewTopicSource(b, topic, node, DecodeGrantedView, fn, opts...)
}

// HandleGranted registers the user-part handler for primitive "granted"
// deliveries on export e.
func HandleGranted(e *svc.Export, h func(GrantedParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimGranted, DecodeGrantedParams, nil, h)
}

// FreeParams is the typed parameter record of primitive "free" (from-user).
type FreeParams struct {
	Resid string
}

// AppendFreeParams appends p's parameter record to buf through
// SchemaFree: the argument record the "free" port or sink carries.
func AppendFreeParams(buf []byte, p FreeParams) ([]byte, error) {
	e := SchemaFree.Encoder(buf)
	e.Str("resid", p.Resid)
	return e.Finish()
}

// DecodeFreeParams reads a "free" parameter record through a zero-copy
// view, copying strings out of it. Absent parameters decode to zero
// values; mistyped ones are rejected.
func DecodeFreeParams(v codec.MsgView) (FreeParams, error) {
	var p FreeParams
	if _, ok := v.Raw("resid"); ok {
		s, ok := v.Str("resid")
		if !ok {
			return p, mistyped(&v, "free", "resid", "string")
		}
		p.Resid = string(s)
	}
	return p, nil
}

// NewFreePort opens a typed RPC port for primitive "free": the user part
// submits FreeParams to the provider object and the continuation
// receives the acknowledgement.
func NewFreePort(b *svc.Binding, target middleware.ObjRef, opts ...svc.PortOption) (*svc.Port[FreeParams, Ack], error) {
	return svc.NewPort[FreeParams, Ack](b, target, PrimFree, AppendFreeParams, nil, opts...)
}

// HandleFree registers the provider-side handler for primitive "free" on
// export e.
func HandleFree(e *svc.Export, h func(FreeParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimFree, DecodeFreeParams, nil, h)
}

// Provider is the provider face of the service: one handler per from-user
// primitive.
type Provider interface {
	// Request handles primitive "request".
	Request(RequestParams, func(Ack, error))
	// Free handles primitive "free".
	Free(FreeParams, func(Ack, error))
}

// ExportProvider hosts every from-user primitive of h as one platform object
// (ref, hosted at node) and registers it.
func ExportProvider(b *svc.Binding, ref middleware.ObjRef, node middleware.Addr, h Provider, opts ...svc.PortOption) (*svc.Export, error) {
	e, err := b.NewExport(ref, node, opts...)
	if err != nil {
		return nil, err
	}
	if err := HandleRequest(e, h.Request); err != nil {
		return nil, err
	}
	if err := HandleFree(e, h.Free); err != nil {
		return nil, err
	}
	if err := e.Register(); err != nil {
		return nil, err
	}
	return e, nil
}

// Consumer is the user-part face of the service: one handler per to-user
// primitive.
type Consumer interface {
	// Granted handles primitive "granted".
	Granted(GrantedParams, func(Ack, error))
}

// ExportConsumer hosts every to-user primitive of h as one platform object
// (ref, hosted at node) and registers it.
func ExportConsumer(b *svc.Binding, ref middleware.ObjRef, node middleware.Addr, h Consumer, opts ...svc.PortOption) (*svc.Export, error) {
	e, err := b.NewExport(ref, node, opts...)
	if err != nil {
		return nil, err
	}
	if err := HandleGranted(e, h.Granted); err != nil {
		return nil, err
	}
	if err := e.Register(); err != nil {
		return nil, err
	}
	return e, nil
}
