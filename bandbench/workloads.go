package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/fanout"
	"repro/internal/floorcontrol"
	"repro/internal/runner"
)

// workers is the sweep's worker count on every workload: the closed loop
// is a fixed scenario list drained by this many workers.
const workers = 2

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"default", "large", "fanout", "churn"}

// bandFiles maps each band-file workload to its file, relative to the
// checkout root.
var bandFiles = map[string]string{
	"default": "examples/bands/default.band",
	"large":   "bandbench/bands/large.band",
	"churn":   "examples/bands/churn.band",
}

// churnRepeats is how many times one churn sweep runs each scenario of
// churn.band, each copy under its own derived seed. One pass over the
// band takes about 0.1 s, and its work depends on the fault plans the
// seed draws, so a single pass is too short and too seed-dependent to
// measure steadily.
const churnRepeats = 8

// repeated returns n copies of scens. Copy j's IDs end in "/rep=j", which
// gives every copy its own derived seed.
func repeated(scens []runner.Scenario, n int) []runner.Scenario {
	out := make([]runner.Scenario, 0, n*len(scens))
	for j := 0; j < n; j++ {
		for _, sc := range scens {
			sc.ID = fmt.Sprintf("%s/rep=%d", sc.ID, j)
			out = append(out, sc)
		}
	}
	return out
}

// fanoutSinks is the fan-out workload's grid: total sinks × sinks per
// subscriber node. Sinks per node sets how much delivery work the
// federated broker shares (one wire message per node, demuxed to every
// co-located sink), so it is the dimension that matters most.
var fanoutSinks = []struct{ subscribers, perNode int }{
	{65536, 1},
	{65536, 16},
	{65536, 256},
	{262144, 16},
	{262144, 256},
}

// plan is one expanded workload: the scenarios the program's own entry
// points build, and, for floor-control scenarios, the Config each was
// expanded from so the benchmark can run it through a forwarding
// Solution.
type plan struct {
	scenarios []runner.Scenario
	// configs[i] is scenario i's workload Config; nil for fan-out
	// scenarios, which run as built.
	configs []*floorcontrol.Config
}

// loadPlan reads and expands the named workload from the checkout rooted
// at root. This is the set-up step timed by setup_s.
func loadPlan(root, name string) (*plan, error) {
	if name == "fanout" {
		scens := builtinScenarios(name)
		return &plan{scenarios: scens, configs: make([]*floorcontrol.Config, len(scens))}, nil
	}
	file, ok := bandFiles[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	src, err := os.ReadFile(filepath.Join(root, file))
	if err != nil {
		return nil, fmt.Errorf("load band: %w", err)
	}
	scens, err := runner.BandFileScenarios(string(src), 0)
	if err != nil {
		return nil, fmt.Errorf("expand %s: %w", file, err)
	}
	configs := make([]*floorcontrol.Config, len(scens))
	for i, sc := range scens {
		if configs[i], err = configOf(sc); err != nil {
			return nil, err
		}
	}
	if name == "churn" {
		scens = repeated(scens, churnRepeats)
		configs = slices.Repeat(configs, churnRepeats)
	}
	return &plan{scenarios: scens, configs: configs}, nil
}

// configOf recovers the floor-control Config a band scenario was expanded
// from. The scenario carries only its ID and parameter labels, so the
// Config is rebuilt from them and accepted only if it renders the very
// same ID: any parameter the labels do not carry would change the ID and
// fail here instead of silently running a different workload.
func configOf(sc runner.Scenario) (*floorcontrol.Config, error) {
	p := sc.Params
	cfg := &floorcontrol.Config{Solution: p["solution"]}
	ints := []struct {
		key string
		dst *int
	}{{"subscribers", &cfg.Subscribers}, {"resources", &cfg.Resources}, {"cycles", &cfg.Cycles}}
	for _, f := range ints {
		v, err := strconv.Atoi(p[f.key])
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %s: %w", sc.ID, f.key, err)
		}
		*f.dst = v
	}
	var err error
	if cfg.LossRate, err = strconv.ParseFloat(p["loss"], 64); err != nil {
		return nil, fmt.Errorf("scenario %q: loss: %w", sc.ID, err)
	}
	if s, ok := p["crash_rate"]; ok {
		if cfg.CrashRate, err = strconv.ParseFloat(s, 64); err != nil {
			return nil, fmt.Errorf("scenario %q: crash_rate: %w", sc.ID, err)
		}
		if cfg.MTTR, err = time.ParseDuration(p["mttr"]); err != nil {
			return nil, fmt.Errorf("scenario %q: mttr: %w", sc.ID, err)
		}
		cfg.RebindPolicy = p["rebind"]
	}
	for _, seg := range strings.Split(sc.ID, "/") {
		if d, ok := strings.CutPrefix(seg, "deadline="); ok {
			if cfg.Deadline, err = time.ParseDuration(d); err != nil {
				return nil, fmt.Errorf("scenario %q: deadline: %w", sc.ID, err)
			}
		}
	}
	if got := cfg.ScenarioID(); got != sc.ID {
		return nil, fmt.Errorf("scenario %q: rebuilt config renders %q", sc.ID, got)
	}
	return cfg, nil
}

// builtinScenarios is the workload as the program's own band builders
// define it: the reference the benchmark's instrumented sweep must
// reproduce byte for byte.
func builtinScenarios(name string) []runner.Scenario {
	switch name {
	case "default":
		return runner.DefaultBand().Scenarios()
	case "large":
		return runner.LargeClientBand().Scenarios()
	case "churn":
		return repeated(runner.ChurnBand(0), churnRepeats)
	case "fanout":
		var out []runner.Scenario
		for _, g := range fanoutSinks {
			out = append(out, runner.FanoutScenario(fanout.Config{
				Subscribers:  g.subscribers,
				Nodes:        g.subscribers / g.perNode,
				Leaves:       4,
				Events:       4,
				PayloadBytes: 128,
			}))
		}
		return out
	}
	return nil
}
