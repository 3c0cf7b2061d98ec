package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/codec"
)

// Clock supplies the current virtual time to the observer; *sim.Kernel
// satisfies it.
type Clock interface {
	Now() time.Duration
}

// Observer watches service-primitive executions at the SAP boundary and
// checks every constraint of a specification online. It also records the
// global trace, which offline tooling (LTS refinement, metrics) consumes.
//
// The observer is the runtime embodiment of the paper's claim that a
// service can be "assessed formally": conforming solutions pass through it
// unchanged; non-conforming ones are caught at the first violating event.
type Observer struct {
	spec  *ServiceSpec
	clock Clock

	trace      Trace
	monitors   []Monitor
	violations []error
	strictKind bool
}

// ObserverOption configures an Observer.
type ObserverOption func(*Observer)

// WithEventValidation makes the observer also validate each event against
// the primitive declarations (unknown primitives, wrong parameter kinds).
func WithEventValidation() ObserverOption {
	return func(o *Observer) { o.strictKind = true }
}

// NewObserver creates an observer for a validated specification.
func NewObserver(spec *ServiceSpec, clock Clock, opts ...ObserverOption) (*Observer, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("observer: invalid spec: %w", err)
	}
	if clock == nil {
		return nil, errors.New("observer: nil clock")
	}
	o := &Observer{spec: spec, clock: clock}
	for _, c := range spec.Constraints {
		o.monitors = append(o.monitors, c.NewMonitor())
	}
	for _, opt := range opts {
		opt(o)
	}
	return o, nil
}

// Spec returns the specification being observed.
func (o *Observer) Spec() *ServiceSpec { return o.spec }

// Observe records the execution of a primitive at a SAP and checks it
// against every constraint. It returns the first violation, which is also
// retained (see Err and Violations). Observe never blocks the observed
// system: violations are reported, not enforced.
func (o *Observer) Observe(sap SAP, primitive string, params codec.Record) error {
	e := Event{At: o.clock.Now(), SAP: sap, Primitive: primitive, Params: params}
	o.trace = append(o.trace, e)
	var first error
	if o.strictKind {
		if err := o.spec.CheckEvent(e); err != nil {
			first = err
			o.violations = append(o.violations, err)
		}
	}
	for _, m := range o.monitors {
		if err := m.Observe(e); err != nil {
			if first == nil {
				first = err
			}
			o.violations = append(o.violations, err)
		}
	}
	return first
}

// Complete closes the observation window, running end-of-trace (liveness)
// checks. It returns the first violation found over the whole run.
func (o *Observer) Complete() error {
	for _, m := range o.monitors {
		if err := m.AtEnd(); err != nil {
			o.violations = append(o.violations, err)
		}
	}
	if len(o.violations) > 0 {
		return o.violations[0]
	}
	return nil
}

// Err returns the first violation observed so far, or nil.
func (o *Observer) Err() error {
	if len(o.violations) > 0 {
		return o.violations[0]
	}
	return nil
}

// Violations returns all violations observed so far.
func (o *Observer) Violations() []error {
	return append([]error(nil), o.violations...)
}

// Trace returns a copy of the recorded global trace.
func (o *Observer) Trace() Trace {
	return append(Trace(nil), o.trace...)
}

// EventCount returns the number of observed events without copying.
func (o *Observer) EventCount() int {
	return len(o.trace)
}

// Provider is the runtime face of a service, as seen by a user part at its
// SAP. FromUser primitives are submitted with Submit; ToUser primitives
// arrive on the handler registered with Attach.
//
// This interface is the concrete payoff of the service concept: an
// application part written against Provider runs unchanged over *any*
// implementation of the service — any of the paper's protocol solutions
// (a), (b) or (c) — which is exactly the §5 argument that the service
// "shields the application from the way in which the service is
// implemented".
type Provider interface {
	// Submit executes a from-user primitive at the given SAP.
	Submit(sap SAP, primitive string, params codec.Record) error
	// Attach registers the handler that receives to-user primitives
	// delivered at the given SAP. A SAP has at most one handler; attaching
	// twice replaces it.
	Attach(sap SAP, handler func(primitive string, params codec.Record))
}
