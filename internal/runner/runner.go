// Package runner is a deterministic parallel scenario-sweep subsystem.
//
// A sweep takes a matrix of scenarios — experiment ID × seed × workload
// parameters — and fans them out across a bounded worker pool. Each
// scenario owns its private simulation kernel (construction happens inside
// Scenario.Run), so workers share no mutable state and the simulation code
// needs no locking. Per-scenario seeds are derived from the sweep's base
// seed with a splittable hash keyed by the scenario ID (see DeriveSeed),
// and results are collected at the scenario's input position, so the
// aggregated report is bit-identical regardless of worker count or
// completion order.
package runner

import (
	"errors"
	"fmt"
	"runtime"
	"sync"        //repolint:allow sync -- worker pool: the one place scenarios run concurrently
	"sync/atomic" //repolint:allow sync -- worker pool: the one place scenarios run concurrently
	"time"
)

// Scenario is one deterministic unit of sweep work.
type Scenario struct {
	// ID uniquely identifies the scenario within a sweep and keys its
	// derived seed — changing the ID changes the seed.
	ID string
	// Params are descriptive parameter labels carried into the report
	// (CSV columns, JSON fields). They do not influence execution.
	Params map[string]string
	// Run executes the scenario with its derived seed. It must be a pure
	// function of the seed: no shared mutable state, no wall-clock.
	Run func(seed int64) (Outcome, error)
}

// Outcome is what one scenario produces.
type Outcome struct {
	// Text is the rendered human-readable artifact (a figure table, a
	// workload summary line). May be empty for purely numeric scenarios.
	Text string `json:"text,omitempty"`
	// Metrics are named numeric measurements for aggregation.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Options configures a sweep.
type Options struct {
	// Workers bounds the pool; <=0 means GOMAXPROCS(0).
	Workers int
	// BaseSeed is the sweep-level seed from which every scenario seed is
	// derived.
	BaseSeed int64
}

// ScenarioResult is one scenario's slot in the sweep report.
type ScenarioResult struct {
	ID      string            `json:"id"`
	Seed    int64             `json:"seed"`
	Params  map[string]string `json:"params,omitempty"`
	Outcome Outcome           `json:"outcome"`
	// Err is the scenario's failure, empty on success. Kept as a string so
	// the report stays serializable and byte-comparable.
	Err string `json:"err,omitempty"`
	// WallNanos is the scenario's wall-clock execution time. It is
	// excluded from every byte-compared rendering (JSON, CSV, String) so
	// reports stay deterministic; TableString(true) renders it for
	// humans watching sweep cost (cmd/sweep table output).
	WallNanos int64 `json:"-"`
}

// Sweep executes the scenario matrix and returns the aggregated report in
// input order. It returns an error only for an invalid matrix (empty, a
// duplicate or empty ID, a nil Run); individual scenario failures are
// recorded per-result and surfaced by SweepReport.Err.
func Sweep(scenarios []Scenario, opts Options) (*SweepReport, error) {
	if len(scenarios) == 0 {
		return nil, errors.New("runner: empty scenario matrix")
	}
	seen := make(map[string]struct{}, len(scenarios))
	for i, s := range scenarios {
		if s.ID == "" {
			return nil, fmt.Errorf("runner: scenario %d has an empty ID", i)
		}
		if s.Run == nil {
			return nil, fmt.Errorf("runner: scenario %q has a nil Run", s.ID)
		}
		if _, dup := seen[s.ID]; dup {
			return nil, fmt.Errorf("runner: duplicate scenario ID %q", s.ID)
		}
		seen[s.ID] = struct{}{}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}

	results := make([]ScenarioResult, len(scenarios))
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(scenarios) {
					return
				}
				results[i] = runOne(scenarios[i], opts.BaseSeed)
			}
		}()
	}
	wg.Wait()

	return &SweepReport{BaseSeed: opts.BaseSeed, Scenarios: results}, nil
}

// runOne executes a single scenario, converting a panic into a recorded
// failure so one bad scenario cannot take the whole sweep down.
func runOne(sc Scenario, baseSeed int64) (res ScenarioResult) {
	res = ScenarioResult{ID: sc.ID, Seed: DeriveSeed(baseSeed, sc.ID), Params: sc.Params}
	start := time.Now() //repolint:allow wallclock -- wall-clock telemetry only; excluded from deterministic report output
	defer func() {
		res.WallNanos = time.Since(start).Nanoseconds() //repolint:allow wallclock -- wall-clock telemetry only; excluded from deterministic report output
		if p := recover(); p != nil {
			res.Err = fmt.Sprintf("panic: %v", p)
		}
	}()
	out, err := sc.Run(res.Seed)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Outcome = out
	return res
}
