// Code generated by sdlgen from allkinds.svc. DO NOT EDIT.

// Package allkinds is the generated Go binding of the "all-kinds" service
// definition: the validated core.ServiceSpec, a compiled codec.Schema per
// primitive parameter record, and typed direction-aware service ports
// over internal/svc.
package allkinds

import (
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/middleware"
	"repro/internal/svc"
)

// ServiceName is the name of the source service definition.
const ServiceName = "all-kinds"

// Role names.
const (
	RoleProducer = "producer"
	RoleConsumer = "consumer"
)

// Primitive (wire operation) names.
const (
	PrimOpen   = "open"
	PrimOpened = "opened"
	PrimClose  = "close"
	PrimPing   = "ping"
)

// Compiled parameter-record layouts, one per primitive: the bare
// record a port call or oneway send carries as its arguments.
var (
	SchemaOpen   = codec.CompileRecord("id", "seq", "urgent", "tags")
	SchemaOpened = codec.CompileRecord("id", "seq")
	SchemaClose  = codec.CompileRecord("id")
	SchemaPing   = codec.CompileRecord()
)

// Spec reconstructs the validated service specification.
func Spec() *core.ServiceSpec {
	return &core.ServiceSpec{
		Name:        ServiceName,
		Description: "session service exercising every kind and constraint form",
		Roles: []core.RoleDef{
			{Name: RoleProducer, Min: 1, Max: 1},
			{Name: RoleConsumer, Min: 0, Max: 0},
		},
		Primitives: []core.PrimitiveDef{
			{Name: PrimOpen, Direction: core.FromUser, Params: []core.ParamDef{
				{Name: "id", Kind: core.KindString},
				{Name: "seq", Kind: core.KindInt},
				{Name: "urgent", Kind: core.KindBool},
				{Name: "tags", Kind: core.KindStringList},
			}},
			{Name: PrimOpened, Direction: core.ToUser, Params: []core.ParamDef{
				{Name: "id", Kind: core.KindString},
				{Name: "seq", Kind: core.KindInt},
			}},
			{Name: PrimClose, Direction: core.FromUser, Params: []core.ParamDef{
				{Name: "id", Kind: core.KindString},
			}},
			{Name: PrimPing, Direction: core.FromUser},
		},
		Constraints: []core.Constraint{
			&core.Precedes{
				ConstraintName:   "opened-follows-open",
				ScopeKind:        core.ScopeLocal,
				Trigger:          PrimOpen,
				Enabled:          PrimOpened,
				Key:              core.KeySAPAndParam("id"),
				AllowPendingMany: true,
			},
			&core.Precedes{
				ConstraintName: "close-follows-open",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimOpen,
				Enabled:        PrimClose,
				Key:            core.KeyParam("id"),
				NonConsuming:   true,
			},
			&core.Capacity{
				ConstraintName: "bounded-sessions",
				Acquire:        PrimOpen,
				Release:        PrimClose,
				Key:            core.KeyParam("id"),
				Limit:          2,
			},
			&core.Deadline{
				ConstraintName: "opened-within-deadline",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimOpen,
				Response:       PrimOpened,
				Key:            core.KeySAPAndParam("id"),
				Within:         750 * time.Millisecond,
			},
			&core.EventuallyFollows{
				ConstraintName: "open-eventually-closed",
				ScopeKind:      core.ScopeLocal,
				Trigger:        PrimOpen,
				Response:       PrimClose,
				Key:            core.KeyParam("id"),
			},
			&core.Absence{
				ConstraintName: "no-reopen-while-open",
				ScopeKind:      core.ScopeLocal,
				Open:           PrimOpened,
				Close:          PrimClose,
				Forbidden:      PrimOpen,
				Key:            core.KeyParam("id"),
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

// OpenParams is the typed parameter record of primitive "open" (from-user).
type OpenParams struct {
	Id     string
	Seq    int64
	Urgent bool
	Tags   []string
}

// AppendOpenParams appends p's parameter record to buf through
// SchemaOpen: the argument record the "open" port or sink carries.
func AppendOpenParams(buf []byte, p OpenParams) ([]byte, error) {
	e := SchemaOpen.Encoder(buf)
	e.Str("id", p.Id)
	e.Int("seq", p.Seq)
	e.StrList("tags", p.Tags)
	e.Bool("urgent", p.Urgent)
	return e.Finish()
}

// DecodeOpenParams reads a "open" parameter record through a zero-copy
// view, copying strings out of it. Absent parameters decode to zero
// values; mistyped ones are rejected.
func DecodeOpenParams(v codec.MsgView) (OpenParams, error) {
	var p OpenParams
	if _, ok := v.Raw("id"); ok {
		s, ok := v.Str("id")
		if !ok {
			return p, mistyped(&v, "open", "id", "string")
		}
		p.Id = string(s)
	}
	if _, ok := v.Raw("seq"); ok {
		n, ok := v.Int("seq")
		if !ok {
			return p, mistyped(&v, "open", "seq", "int")
		}
		p.Seq = n
	}
	if _, ok := v.Raw("urgent"); ok {
		b, ok := v.Bool("urgent")
		if !ok {
			return p, mistyped(&v, "open", "urgent", "bool")
		}
		p.Urgent = b
	}
	if _, ok := v.Raw("tags"); ok {
		it, ok := v.StrList("tags")
		if !ok {
			return p, mistyped(&v, "open", "tags", "list")
		}
		p.Tags = make([]string, 0, it.Len())
		for s, ok := it.Next(); ok; s, ok = it.Next() {
			p.Tags = append(p.Tags, string(s))
		}
	}
	return p, nil
}

// NewOpenPort opens a typed RPC port for primitive "open": the user part
// submits OpenParams to the provider object and the continuation
// receives the acknowledgement.
func NewOpenPort(b *svc.Binding, target middleware.ObjRef, opts ...svc.PortOption) (*svc.Port[OpenParams, Ack], error) {
	return svc.NewPort[OpenParams, Ack](b, target, PrimOpen, AppendOpenParams, nil, opts...)
}

// HandleOpen registers the provider-side handler for primitive "open" on
// export e.
func HandleOpen(e *svc.Export, h func(OpenParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimOpen, DecodeOpenParams, nil, h)
}

// OpenedParams is the typed parameter record of primitive "opened" (to-user).
type OpenedParams struct {
	Id  string
	Seq int64
}

// AppendOpenedParams appends p's parameter record to buf through
// SchemaOpened: the argument record the "opened" port or sink carries.
func AppendOpenedParams(buf []byte, p OpenedParams) ([]byte, error) {
	e := SchemaOpened.Encoder(buf)
	e.Str("id", p.Id)
	e.Int("seq", p.Seq)
	return e.Finish()
}

// DecodeOpenedParams reads a "opened" parameter record through a zero-copy
// view, copying strings out of it. Absent parameters decode to zero
// values; mistyped ones are rejected.
func DecodeOpenedParams(v codec.MsgView) (OpenedParams, error) {
	var p OpenedParams
	if _, ok := v.Raw("id"); ok {
		s, ok := v.Str("id")
		if !ok {
			return p, mistyped(&v, "opened", "id", "string")
		}
		p.Id = string(s)
	}
	if _, ok := v.Raw("seq"); ok {
		n, ok := v.Int("seq")
		if !ok {
			return p, mistyped(&v, "opened", "seq", "int")
		}
		p.Seq = n
	}
	return p, nil
}

// EncodeOpenedParams marshals p into the generic parameter record the
// topic plane carries.
func EncodeOpenedParams(p OpenedParams) codec.Record {
	return codec.Record{
		"id":  p.Id,
		"seq": p.Seq,
	}
}

// OpenedMessage wraps p as the named message the topic plane carries.
func OpenedMessage(p OpenedParams) codec.Message {
	return codec.Message{Name: PrimOpened, Fields: EncodeOpenedParams(p)}
}

// NewOpenedSink opens a typed oneway sink for primitive "opened": the provider
// delivers OpenedParams to a user-part object without awaiting a reply.
func NewOpenedSink(b *svc.Binding, target middleware.ObjRef, opts ...svc.PortOption) (*svc.Sink[OpenedParams], error) {
	return svc.NewOnewaySink(b, target, PrimOpened, AppendOpenedParams, opts...)
}

// NewOpenedTopicSink opens a typed publisher of "opened" events on topic.
func NewOpenedTopicSink(b *svc.Binding, topic string, opts ...svc.PortOption) (*svc.Sink[OpenedParams], error) {
	opts = append([]svc.PortOption{svc.WithPrimitive(PrimOpened)}, opts...)
	return svc.NewTopicSink(b, topic, OpenedMessage, opts...)
}

// DecodeOpenedView decodes a published "opened" event from the zero-copy
// delivery plane.
func DecodeOpenedView(v codec.MsgView) (OpenedParams, error) {
	fields, ok := v.RecordView("fields")
	if !ok {
		return OpenedParams{}, fmt.Errorf("opened: event carries no parameter record")
	}
	return DecodeOpenedParams(fields)
}

// NewOpenedTopicSource subscribes node to "opened" events on topic, delivering
// decoded parameters to fn.
func NewOpenedTopicSource(b *svc.Binding, topic string, node middleware.Addr, fn func(OpenedParams), opts ...svc.PortOption) (*svc.Source[OpenedParams], error) {
	opts = append([]svc.PortOption{svc.WithPrimitive(PrimOpened)}, opts...)
	return svc.NewTopicSource(b, topic, node, DecodeOpenedView, fn, opts...)
}

// HandleOpened registers the user-part handler for primitive "opened"
// deliveries on export e.
func HandleOpened(e *svc.Export, h func(OpenedParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimOpened, DecodeOpenedParams, nil, h)
}

// CloseParams is the typed parameter record of primitive "close" (from-user).
type CloseParams struct {
	Id string
}

// AppendCloseParams appends p's parameter record to buf through
// SchemaClose: the argument record the "close" port or sink carries.
func AppendCloseParams(buf []byte, p CloseParams) ([]byte, error) {
	e := SchemaClose.Encoder(buf)
	e.Str("id", p.Id)
	return e.Finish()
}

// DecodeCloseParams reads a "close" parameter record through a zero-copy
// view, copying strings out of it. Absent parameters decode to zero
// values; mistyped ones are rejected.
func DecodeCloseParams(v codec.MsgView) (CloseParams, error) {
	var p CloseParams
	if _, ok := v.Raw("id"); ok {
		s, ok := v.Str("id")
		if !ok {
			return p, mistyped(&v, "close", "id", "string")
		}
		p.Id = string(s)
	}
	return p, nil
}

// NewClosePort opens a typed RPC port for primitive "close": the user part
// submits CloseParams to the provider object and the continuation
// receives the acknowledgement.
func NewClosePort(b *svc.Binding, target middleware.ObjRef, opts ...svc.PortOption) (*svc.Port[CloseParams, Ack], error) {
	return svc.NewPort[CloseParams, Ack](b, target, PrimClose, AppendCloseParams, nil, opts...)
}

// HandleClose registers the provider-side handler for primitive "close" on
// export e.
func HandleClose(e *svc.Export, h func(CloseParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimClose, DecodeCloseParams, nil, h)
}

// PingParams is the typed parameter record of primitive "ping" (from-user).
type PingParams struct{}

// AppendPingParams appends p's parameter record to buf through
// SchemaPing: the argument record the "ping" port or sink carries.
func AppendPingParams(buf []byte, _ PingParams) ([]byte, error) {
	e := SchemaPing.Encoder(buf)
	return e.Finish()
}

// DecodePingParams reads a "ping" parameter record through a zero-copy
// view, copying strings out of it. Absent parameters decode to zero
// values; mistyped ones are rejected.
func DecodePingParams(codec.MsgView) (PingParams, error) {
	return PingParams{}, nil
}

// NewPingPort opens a typed RPC port for primitive "ping": the user part
// submits PingParams to the provider object and the continuation
// receives the acknowledgement.
func NewPingPort(b *svc.Binding, target middleware.ObjRef, opts ...svc.PortOption) (*svc.Port[PingParams, Ack], error) {
	return svc.NewPort[PingParams, Ack](b, target, PrimPing, AppendPingParams, nil, opts...)
}

// HandlePing registers the provider-side handler for primitive "ping" on
// export e.
func HandlePing(e *svc.Export, h func(PingParams, func(Ack, error))) error {
	return svc.HandleOp(e, PrimPing, DecodePingParams, nil, h)
}

// Provider is the provider face of the service: one handler per from-user
// primitive.
type Provider interface {
	// Open handles primitive "open".
	Open(OpenParams, func(Ack, error))
	// Close handles primitive "close".
	Close(CloseParams, func(Ack, error))
	// Ping handles primitive "ping".
	Ping(PingParams, func(Ack, error))
}

// ExportProvider hosts every from-user primitive of h as one platform object
// (ref, hosted at node) and registers it.
func ExportProvider(b *svc.Binding, ref middleware.ObjRef, node middleware.Addr, h Provider, opts ...svc.PortOption) (*svc.Export, error) {
	e, err := b.NewExport(ref, node, opts...)
	if err != nil {
		return nil, err
	}
	if err := HandleOpen(e, h.Open); err != nil {
		return nil, err
	}
	if err := HandleClose(e, h.Close); err != nil {
		return nil, err
	}
	if err := HandlePing(e, h.Ping); err != nil {
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
	// Opened handles primitive "opened".
	Opened(OpenedParams, func(Ack, error))
}

// ExportConsumer hosts every to-user primitive of h as one platform object
// (ref, hosted at node) and registers it.
func ExportConsumer(b *svc.Binding, ref middleware.ObjRef, node middleware.Addr, h Consumer, opts ...svc.PortOption) (*svc.Export, error) {
	e, err := b.NewExport(ref, node, opts...)
	if err != nil {
		return nil, err
	}
	if err := HandleOpened(e, h.Opened); err != nil {
		return nil, err
	}
	if err := e.Register(); err != nil {
		return nil, err
	}
	return e, nil
}
