package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/runner"
)

// The recorded seeds include the one the benchmark was tuned on and a
// held-out one: a performance claim made at the tuning seed must also
// hold at the held-out seed.
const (
	tuningSeed  = 42
	heldOutSeed = 9001
)

// refsJSON maps workload → seed → SHA-256 of the CSV report that the
// program's own band builders produce at that base seed. It is written by
// -record-refs; seed 42 of default and large equals the golden hashes in
// internal/runner/golden_test.go.
//
//go:embed refs.json
var refsJSON []byte

// refHash returns the recorded CSV hash of a workload at a seed, or ""
// when the seed was not recorded.
func refHash(workload string, seed int64) (string, error) {
	var refs map[string]map[string]string
	if err := json.Unmarshal(refsJSON, &refs); err != nil {
		return "", fmt.Errorf("refs.json: %w", err)
	}
	return refs[workload][strconv.FormatInt(seed, 10)], nil
}

// recordRefs sweeps every workload's built-in scenarios at each seed and
// writes the refs.json table to w. A sweep with a failed scenario is an
// error: a reference must come from a clean run.
func recordRefs(w io.Writer, seeds []int64) error {
	refs := map[string]map[string]string{}
	for _, name := range workloadNames {
		refs[name] = map[string]string{}
		for _, seed := range seeds {
			rep, err := runner.Sweep(builtinScenarios(name), runner.Options{Workers: workers, BaseSeed: seed})
			if err != nil {
				return err
			}
			if n := scenarioFailures(rep); n > 0 {
				return fmt.Errorf("%s at seed %d: %d scenarios failed", name, seed, n)
			}
			h, err := csvHash(rep)
			if err != nil {
				return err
			}
			refs[name][strconv.FormatInt(seed, 10)] = h
		}
	}
	out, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// parseSeeds parses a comma-separated list of seeds and inclusive ranges,
// such as "0-24,42".
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed list %q: %w", s, err)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil || b < a {
				return nil, fmt.Errorf("seed list %q: bad range %q", s, part)
			}
		}
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
	}
	return out, nil
}
