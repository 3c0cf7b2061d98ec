package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/floorcontrol"
	"repro/internal/runner"
)

// root is the checkout root as seen from this package's directory.
const root = ".."

// The traced sweep — forwarding Solution, wrapped application parts,
// spans, a CPU profile — must produce the very CSV that runner.Sweep
// produces over the program's built-in scenarios, on every workload.
func TestTracedSweepMatchesBuiltin(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			if name == "large" && testing.Short() {
				t.Skip("the large band takes seconds")
			}
			p, err := loadPlan(root, name)
			if err != nil {
				t.Fatal(err)
			}
			const seed = 7
			traced, err := measureSweep(p, 0, true, seed)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := runner.Sweep(builtinScenarios(name), runner.Options{Workers: workers, BaseSeed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want, err := csvHash(rep)
			if err != nil {
				t.Fatal(err)
			}
			if traced.hash != want {
				t.Fatalf("traced sweep CSV hash %s, built-in sweep %s", traced.hash, want)
			}
			if traced.failed != 0 {
				t.Fatalf("%d scenarios failed", traced.failed)
			}
		})
	}
}

// The forwarding Solution exposes ControllerFailover exactly when the
// wrapped solution does: the churn driver decides from that assertion
// whether a controller node churns and fails over.
func TestForwardingKeepsFailoverExtension(t *testing.T) {
	for _, name := range floorcontrol.AllSolutionNames() {
		sol, ok := floorcontrol.SolutionByName(name)
		if !ok {
			t.Fatalf("no solution %q", name)
		}
		fs := &fwdSolution{Solution: sol, rec: &scenarioRec{}}
		_, want := sol.(floorcontrol.ControllerFailover)
		fwd := fs.forwarding()
		if _, got := fwd.(floorcontrol.ControllerFailover); got != want {
			t.Errorf("%s: forwarding implements ControllerFailover = %v, wrapped = %v", name, got, want)
		}
		if fwd.Name() != name || fwd.Paradigm() != sol.Paradigm() {
			t.Errorf("%s: forwarding reports %s/%s", name, fwd.Name(), fwd.Paradigm())
		}
	}
}

// Seed 42 of the default and large bands is the tree's golden output:
// these are goldenDefaultBandCSV and goldenLargeBandCSV of
// internal/runner/golden_test.go.
func TestReferencesMatchGolden(t *testing.T) {
	for name, want := range map[string]string{
		"default": "36e197fa96a00e353f98f4150304a16f276b537b3b4d690384cbe543e493acec",
		"large":   "8be6bcf615978d3616183648e2a1f567d9df295fd3a11fc3f24b2ada1cf1e0a4",
	} {
		got, err := refHash(name, tuningSeed)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s reference at seed %d = %q, want %s", name, tuningSeed, got, want)
		}
	}
	for _, name := range workloadNames {
		for _, seed := range []int64{tuningSeed, heldOutSeed} {
			if h, _ := refHash(name, seed); h == "" {
				t.Errorf("%s has no reference at seed %d", name, seed)
			}
		}
	}
}

// A run whose CSV does not match the reference counts every scenario of
// the sweep as failed.
func TestHashMismatchFails(t *testing.T) {
	var out bytes.Buffer
	o := options{workload: "churn", seed: tuningSeed, root: root}
	res, err := benchWithRef(o, strings.Repeat("0", 64), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != res.attempted || res.attempted == 0 {
		t.Fatalf("failed %d of %d, want all", res.failed, res.attempted)
	}
	if err := res.print(&out, o); err != nil {
		t.Fatal(err)
	}
	var last resultOut
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Failed != res.attempted {
		t.Fatalf("result line %+v, want incorrect with every scenario failed", last)
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	check := func(kind string, file []struct{ Name, Unit string }, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(file), len(prog))
			return
		}
		for i, m := range file {
			if m.Name != prog[i].name || m.Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
