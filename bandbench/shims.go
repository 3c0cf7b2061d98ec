package main

import (
	"fmt"
	"time"

	"repro/internal/floorcontrol"
	"repro/internal/protocol"
	"repro/internal/runner"
)

// scenarioRec is what the instrumentation records for one scenario of
// one sweep. Only the goroutine running the scenario writes it; it is
// read after runner.Sweep has returned.
type scenarioRec struct {
	// build is the host time inside Solution.Build (floor-control only).
	build time.Duration

	// The fields below are recorded by traced sweeps only.

	// start and end bound the scenario's span, relative to the sweep's
	// start.
	start, end time.Duration
	// Host time and call counts inside the wrapped AppPart calls.
	acquires, releases       int
	acquireTime, releaseTime time.Duration
	// layers holds the scenario stack's public counters, read once the
	// run has finished.
	layers layerCounts
}

// layerCounts are the public Stats() counters of one floor-control
// scenario's stack. The middleware platform keeps its transport private,
// so the reliable-datagram counters cover protocol- and MDA-paradigm
// scenarios only.
type layerCounts struct {
	netSent, netDelivered, netDropped, netBytes    uint64
	mwCalls, mwReplies, mwWire, mwEventDeliver     uint64
	rdpData, rdpDelivered, rdpRetransmits, rdpAcks uint64
	rdpFlowResets, rdpStaleDrops, pdus             uint64
}

// sweepRun instruments one sweep's scenarios.
type sweepRun struct {
	traced bool
	// origin is the sweep's start; it is set before runner.Sweep starts
	// any worker.
	origin time.Time
	recs   []scenarioRec
}

// scenarios returns p's scenarios with the benchmark's instrumentation:
// floor-control scenarios run through floorcontrol.RunWorkloadWith with a
// forwarding Solution, exactly as runner.WorkloadScenario runs them
// through RunWorkload; traced sweeps also record a span per scenario.
// Fan-out scenarios run as built.
func (s *sweepRun) scenarios(p *plan) []runner.Scenario {
	out := make([]runner.Scenario, len(p.scenarios))
	for i, sc := range p.scenarios {
		rec := &s.recs[i]
		run := sc.Run
		if cfg := p.configs[i]; cfg != nil {
			run = s.floorRun(*cfg, rec)
		}
		if s.traced {
			run = s.span(run, rec)
		}
		out[i] = runner.Scenario{ID: sc.ID, Params: sc.Params, Run: run}
	}
	return out
}

func (s *sweepRun) floorRun(cfg floorcontrol.Config, rec *scenarioRec) func(int64) (runner.Outcome, error) {
	return func(seed int64) (runner.Outcome, error) {
		sol, ok := floorcontrol.SolutionByName(cfg.Solution)
		if !ok {
			return runner.Outcome{}, fmt.Errorf("unknown solution %q", cfg.Solution)
		}
		c := cfg
		c.Seed = seed
		fs := &fwdSolution{Solution: sol, rec: rec, traced: s.traced}
		res, err := floorcontrol.RunWorkloadWith(fs.forwarding(), c)
		if s.traced && fs.env != nil {
			rec.layers = readLayers(fs.env)
		}
		if err != nil {
			return runner.Outcome{}, err
		}
		return runner.Outcome{Text: res.SummaryLine(), Metrics: res.Summary()}, nil
	}
}

func (s *sweepRun) span(run func(int64) (runner.Outcome, error), rec *scenarioRec) func(int64) (runner.Outcome, error) {
	return func(seed int64) (runner.Outcome, error) {
		rec.start = time.Since(s.origin)
		defer func() { rec.end = time.Since(s.origin) }()
		return run(seed)
	}
}

// fwdSolution forwards every Solution method to the wrapped solution,
// timing Build and, in traced sweeps, wrapping each application part.
type fwdSolution struct {
	floorcontrol.Solution
	rec    *scenarioRec
	traced bool
	// env is the stack Build wired the solution into; its layers'
	// counters are read after the run.
	env *floorcontrol.Env
}

// fwdFailover is a fwdSolution whose wrapped solution implements
// floorcontrol.ControllerFailover. The churn driver type-asserts that
// extension to decide whether the controller node churns and can fail
// over, so a wrapper must expose it exactly when the wrapped solution
// does.
type fwdFailover struct {
	*fwdSolution
	floorcontrol.ControllerFailover
}

// forwarding returns f as a Solution with the wrapped solution's optional
// extensions.
func (f *fwdSolution) forwarding() floorcontrol.Solution {
	if cf, ok := f.Solution.(floorcontrol.ControllerFailover); ok {
		return fwdFailover{f, cf}
	}
	return f
}

func (f *fwdSolution) Build(env *floorcontrol.Env) (map[string]floorcontrol.AppPart, error) {
	f.env = env
	start := time.Now()
	parts, err := f.Solution.Build(env)
	f.rec.build = time.Since(start)
	if err != nil || !f.traced {
		return parts, err
	}
	wrapped := make(map[string]floorcontrol.AppPart, len(parts))
	for sub, part := range parts {
		wrapped[sub] = fwdPart{part: part, rec: f.rec}
	}
	return wrapped, nil
}

// fwdPart forwards an application part's calls, timing each. No
// optional extension of AppPart exists, so there is nothing else to
// forward.
type fwdPart struct {
	part floorcontrol.AppPart
	rec  *scenarioRec
}

func (p fwdPart) Acquire(res string, done func()) {
	start := time.Now()
	p.part.Acquire(res, done)
	p.rec.acquireTime += time.Since(start)
	p.rec.acquires++
}

func (p fwdPart) Release(res string) {
	start := time.Now()
	p.part.Release(res)
	p.rec.releaseTime += time.Since(start)
	p.rec.releases++
}

// readLayers reads the public counters of a finished scenario's stack.
func readLayers(env *floorcontrol.Env) layerCounts {
	var c layerCounts
	if env.Net != nil {
		st := env.Net.Stats()
		c.netSent, c.netDelivered, c.netDropped, c.netBytes = st.Sent, st.Delivered, st.Dropped, st.BytesSent
	}
	if env.Platform != nil {
		st := env.Platform.Stats()
		c.mwCalls, c.mwReplies, c.mwWire, c.mwEventDeliver = st.Calls, st.Replies, st.WireMessages, st.EventDeliver
	}
	if rdp, ok := env.Lower.(*protocol.ReliableDatagram); ok {
		st := rdp.Stats()
		c.rdpData, c.rdpDelivered, c.rdpRetransmits, c.rdpAcks = st.DataSent, st.DataDelivered, st.Retransmits, st.AcksSent
		c.rdpFlowResets, c.rdpStaleDrops = st.FlowResets, st.StaleDrops
	}
	if env.Layer != nil {
		c.pdus = env.Layer.Stats().PDUsSent
	}
	return c
}
