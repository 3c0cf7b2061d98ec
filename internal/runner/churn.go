package runner

import (
	"time"

	"repro/internal/bandfile"
)

// Default churn-band dimensions: crash rates in crashes per second per
// node, repair times as MTTR. The cross product with the rebind-policy
// dimension (see ChurnBandWith) over all ten solutions yields the
// 108-scenario conformance-gated churn band.
var (
	defaultChurnRates = []float64{0.5, 2, 5}
	defaultChurnMTTRs = []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond}
)

// ChurnBand is the crash/restart robustness sweep: every solution at
// every crash-rate × MTTR combination, plus — for the solutions whose
// controller supports live rebinding (ControllerFailover) — the same
// grid again under the failover policy. Unlike the throughput bands the
// headline metric is availability (served/offered within the acquire
// timeout); the gate is zero safety violations across the whole band.
// Churn parameters are workload identity, so every grid point gets a
// distinct scenario ID and derived seed. The int parameter is ignored:
// it once selected the execution engine, which never changed any
// output, and it stays only so existing callers keep compiling.
func ChurnBand(_ int) []Scenario {
	return ChurnBandWith(nil, nil)
}

// ChurnBandWith expands the churn band over explicit crash-rate and
// MTTR dimensions (nil/empty take the defaults above) — the hook for
// cmd/sweep's -crash and -mttr overrides. It is the band file
// "band churn { kind churn crash ... mttr ... }" and expands through the
// same code. Expansion order is deterministic: solution, then rebind
// policy, then crash rate, then MTTR. Rates and repair times must be
// positive and free of duplicates, the rules cmd/sweep's flag parsers
// and band files enforce; ChurnBandWith panics otherwise.
func ChurnBandWith(rates []float64, mttrs []time.Duration) []Scenario {
	out, err := expandChurnBand(&bandfile.Band{Name: "churn", Kind: bandfile.KindChurn, Crash: rates, MTTR: mttrs}, nil)
	if err != nil {
		panic(err)
	}
	return out
}
