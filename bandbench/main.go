// Command bandbench is the end-to-end benchmark of the band sweeps: it
// runs one workload — a fixed scenario list drained by two workers, a
// closed loop — through the program's public entry points
// (runner.BandFileScenarios, runner.Sweep, floorcontrol.RunWorkloadWith
// with a forwarding Solution, runner.FanoutScenario), repeats the sweep
// for the requested time, checks every sweep's CSV against a reference
// hash, and prints the metrics by name with their units. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation beyond a timer around Solution.Build. With -trace 1
// the run alternates plain and traced sweeps and reports the per-layer
// metrics: spans around each scenario and each application-part call,
// the layers' public Stats() counters, and CPU and allocation profiles
// bucketed by the innermost repro/internal package.
//
// Usage, from the checkout root (bandbench/run.py builds and runs it):
//
//	bandbench -workload default -seed 42 -seconds 30 -trace 0
//	bandbench -record-refs 0-24,42,9001 > bandbench/refs.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a plain run, each the median over its
// sweeps. peak_rss_mb is the peak of the memory the Go runtime holds
// during a sweep (see memSampler); the process's lifetime VmHWM is
// printed beside it but is one maximum per run, too noisy to gate on.
// fail_frac is printed too but is carried by the result's attempted and
// failed counts: it is 0 on a healthy tree, and a metric that can be 0
// has no relative bound.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"allocs_per_event", "count"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"runner.busy_s", "s"},
	{"runner.idle_frac", "frac"},
	{"runner.scenario_ms_p50", "ms"},
	{"runner.scenario_ms_p90", "ms"},
	{"runner.straggler_ms", "ms"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.cpu_frac", "frac"},
	{"codec.cpu_frac", "frac"},
	{"codec.alloc_frac", "frac"},
	{"floorcontrol.cpu_frac", "frac"},
	{"floorcontrol.alloc_frac", "frac"},
	{"floorcontrol.acquire_calls", "count"},
	{"floorcontrol.acquire_us", "us"},
	{"floorcontrol.release_us", "us"},
	{"floorcontrol.completed_frac", "frac"},
	{"floorcontrol.build_ms", "ms"},
	{"floorcontrol.availability", "frac"},
	{"protocol.data_sent", "count"},
	{"protocol.retransmits", "count"},
	{"protocol.acks", "count"},
	{"protocol.goodput_frac", "frac"},
	{"protocol.pdus", "count"},
	{"protocol.cpu_frac", "frac"},
	{"protocol.flow_resets", "count"},
	{"protocol.stale_drops", "count"},
	{"fault.crashes", "count"},
	{"network.sent", "count"},
	{"network.delivered", "count"},
	{"network.dropped", "count"},
	{"network.bytes", "bytes"},
	{"network.cpu_frac", "frac"},
	{"middleware.calls", "count"},
	{"middleware.replies", "count"},
	{"middleware.wire_msgs", "count"},
	{"middleware.event_deliver", "count"},
	{"middleware.cpu_frac", "frac"},
	{"middleware.alloc_frac", "frac"},
	{"svc.cpu_frac", "frac"},
	{"fanout.run_ms", "ms"},
	{"fanout.delivered_frac", "frac"},
	{"fanout.wire_msgs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.malloc_cpu_frac", "frac"},
	{"runtime.lock_cpu_frac", "frac"},
	{"core.cpu_frac", "frac"},
	{"core.alloc_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

// minSweeps is the fewest plain sweeps a -trace 0 run measures, so every
// median has at least three samples however long one sweep takes.
const minSweeps = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the checkout root the band files are read from: the
	// working directory, or the parent directory in this package's tests.
	root string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bandbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{root: "."}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", tuningSeed, "base sweep seed; every scenario seed derives from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to keep repeating the sweep")
	traceLevel := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	record := fs.String("record-refs", "", "print the reference CSV hashes of every workload at these seeds (e.g. 0-24,42) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		seeds, err := parseSeeds(*record)
		if err == nil {
			err = recordRefs(stdout, seeds)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bandbench:", err)
			return 1
		}
		return 0
	}
	if *traceLevel != 0 && *traceLevel != 1 {
		fmt.Fprintln(stderr, "bandbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = *traceLevel == 1
	if !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(stderr, "bandbench: -workload must be one of %s\n", strings.Join(workloadNames, ", "))
		return 2
	}
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bandbench:", err)
		return 1
	}
	if err := res.print(stdout, o); err != nil {
		fmt.Fprintln(stderr, "bandbench:", err)
		return 1
	}
	return 0
}

// runResult is everything one benchmark run measured.
type runResult struct {
	plain, traced     []*sweepResult
	layers            []map[string]float64 // per traced sweep
	attempted, failed int
	reference         string             // where the expected CSV hash came from
	vmHWM             float64            // the process's peak RSS, in MiB
	cpu, alloc        map[string]float64 // profile bucket shares (traced)
}

func bench(o options, log io.Writer) (*runResult, error) {
	want, err := refHash(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	return benchWithRef(o, want, log)
}

// benchWithRef runs the benchmark, requiring every sweep's CSV to hash to
// want; an empty want takes the first sweep's hash. It writes one line
// per sweep to log.
func benchWithRef(o options, want string, log io.Writer) (*runResult, error) {
	res := &runResult{reference: "recorded"}
	if want == "" {
		res.reference = "first sweep (seed not recorded)"
	}
	cpu := map[string]float64{}
	start := time.Now()
	for i := 0; ; i++ {
		t := time.Now()
		p, err := loadPlan(o.root, o.workload)
		if err != nil {
			return nil, err
		}
		expand := time.Since(t)
		traced := o.trace && i%2 == 1
		r, err := measureSweep(p, expand, traced, o.seed)
		if err != nil {
			return nil, err
		}
		if want == "" {
			want = r.hash
		}
		failed := r.failed
		if r.hash != want {
			failed = len(p.scenarios)
		}
		res.attempted += len(p.scenarios)
		res.failed += failed
		if traced {
			res.layers = append(res.layers, layerMetrics(p, r))
			for k, v := range r.cpu {
				cpu[k] += v
			}
			res.traced = append(res.traced, r)
		} else {
			res.plain = append(res.plain, r)
		}
		fmt.Fprintf(log, "sweep %d: traced=%v wall %.6fs events %.0f alloc %.1fMiB hash %.12s failed %d\n",
			i, traced, r.wall.Seconds(), r.events, float64(r.allocBytes)/(1<<20), r.hash, failed)
		r.report, r.recs = nil, nil // keep the heap to one sweep's worth
		enough := len(res.plain) >= minSweeps
		if o.trace {
			enough = len(res.plain) >= 1 && len(res.traced) >= 1
		}
		if enough && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}
	if o.trace {
		alloc, err := allocShares()
		if err != nil {
			return nil, err
		}
		res.cpu, res.alloc = fractions(cpu), alloc
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	res.vmHWM = float64(ru.Maxrss) / 1024 // KiB on Linux
	return res, nil
}

// endToEndMetrics are the medians over the plain sweeps.
func (r *runResult) endToEndMetrics() map[string]float64 {
	pick := func(f func(*sweepResult) float64) float64 {
		vs := make([]float64, len(r.plain))
		for i, s := range r.plain {
			vs[i] = f(s)
		}
		return median(vs)
	}
	return map[string]float64{
		"wall_s":           pick(func(s *sweepResult) float64 { return s.wall.Seconds() }),
		"events_per_s":     pick(func(s *sweepResult) float64 { return s.events / s.wall.Seconds() }),
		"setup_s":          pick(func(s *sweepResult) float64 { return s.setup.Seconds() }),
		"peak_rss_mb":      pick(func(s *sweepResult) float64 { return float64(s.peakMem) / (1 << 20) }),
		"alloc_mb":         pick(func(s *sweepResult) float64 { return float64(s.allocBytes) / (1 << 20) }),
		"allocs_per_event": pick(func(s *sweepResult) float64 { return float64(s.mallocs) / s.events }),
	}
}

// perLayerMetrics are the medians over the traced sweeps, plus the
// profile shares and the tracing overhead.
func (r *runResult) perLayerMetrics() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		vs := make([]float64, 0, len(r.layers))
		for _, l := range r.layers {
			vs = append(vs, l[d.name])
		}
		m[d.name] = median(vs)
	}
	for k, v := range profileMetrics(r.cpu, r.alloc) {
		m[k] = v
	}
	walls := func(ss []*sweepResult) float64 {
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = s.wall.Seconds()
		}
		return median(vs)
	}
	m["trace.overhead_frac"] = walls(r.traced)/walls(r.plain) - 1
	return m
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func (r *runResult) print(w io.Writer, o options) error {
	defs, values := endToEnd, r.endToEndMetrics()
	if o.trace {
		defs, values = perLayer, r.perLayerMetrics()
	}
	fmt.Fprintf(w, "bandbench: workload %s, seed %d, %d workers, %d plain + %d traced sweeps, reference hash: %s\n",
		o.workload, o.seed, workers, len(r.plain), len(r.traced), r.reference)
	out := resultOut{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v := values[d.name]
		if isBad(v) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(w, "%-28s %14.6g %s\n", "fail_frac", float64(r.failed)/float64(r.attempted), "frac")
	fmt.Fprintf(w, "%-28s %14.6g %s\n", "process_vmhwm", r.vmHWM, "MiB")
	if o.trace {
		for _, b := range []string{bucketBench, bucketOther} {
			fmt.Fprintf(w, "%-28s %14.6g %s\n", b+".cpu_frac", r.cpu[b], "frac")
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func isBad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
