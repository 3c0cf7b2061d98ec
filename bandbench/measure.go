package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/runner"
)

// sweepResult is one measured sweep of a workload.
type sweepResult struct {
	traced bool
	wall   time.Duration
	// setup is the time to load and expand the band plus the summed
	// Solution.Build time of the sweep's floor-control scenarios.
	setup  time.Duration
	events float64
	// peakMem is the peak of the runtime's resident memory during the
	// sweep, in bytes.
	peakMem             uint64
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
	// hash is the SHA-256 of the sweep's CSV report.
	hash string
	// failed counts scenarios that errored or panicked, and churn
	// scenarios that breached safety.
	failed int
	report *runner.SweepReport
	recs   []scenarioRec
	// cpu holds the bucket weights of a traced sweep's CPU profile.
	cpu map[string]float64
}

// measureSweep runs one sweep of p at the benchmark's worker count.
// expand is the time loadPlan took to produce p.
func measureSweep(p *plan, expand time.Duration, traced bool, seed int64) (*sweepResult, error) {
	run := &sweepRun{traced: traced, recs: make([]scenarioRec, len(p.scenarios))}
	scens := run.scenarios(p)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mem := startMemSampler()
	run.origin = time.Now()
	rep, err := runner.Sweep(scens, runner.Options{Workers: workers, BaseSeed: seed})
	wall := time.Since(run.origin)
	peakMem := mem.Stop()
	runtime.ReadMemStats(&after)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}
	hash, err := csvHash(rep)
	if err != nil {
		return nil, err
	}
	r := &sweepResult{
		traced:     traced,
		wall:       wall,
		setup:      expand,
		events:     rep.TotalMetric("kernel_events"),
		peakMem:    peakMem,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   after.NumGC - before.NumGC,
		gcPause:    time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		hash:       hash,
		failed:     scenarioFailures(rep),
		report:     rep,
		recs:       run.recs,
	}
	for _, rec := range run.recs {
		r.setup += rec.build
	}
	if traced {
		prof, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		r.cpu = map[string]float64{}
		if err := prof.addWeights("cpu", true, r.cpu); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// csvHash is the SHA-256 of a sweep's CSV report.
func csvHash(rep *runner.SweepReport) (string, error) {
	csv, err := rep.CSV()
	if err != nil {
		return "", fmt.Errorf("render CSV: %w", err)
	}
	sum := sha256.Sum256(csv)
	return hex.EncodeToString(sum[:]), nil
}

// scenarioFailures counts the scenarios of a sweep that failed: an error
// or panic, or a churn scenario that breached safety. Model outcomes —
// a run that misses its virtual deadline and so does not conform — are
// results, not failures: the CSV hash pins them.
func scenarioFailures(rep *runner.SweepReport) int {
	n := 0
	for _, s := range rep.Scenarios {
		_, churn := s.Params["crash_rate"]
		if s.Err != "" || churn && s.Outcome.Metrics["safety_ok"] != 1 {
			n++
		}
	}
	return n
}

// layerMetrics derives one traced sweep's per-layer metrics from its
// spans, the layers' counters, and the report's own metrics.
func layerMetrics(p *plan, r *sweepResult) map[string]float64 {
	m := map[string]float64{}
	add := func(k string, v float64) { m[k] += v }

	var busy, lastStart time.Duration
	durs := make([]float64, 0, len(r.recs))
	for _, rec := range r.recs {
		busy += rec.end - rec.start
		durs = append(durs, ms(rec.end-rec.start))
		lastStart = max(lastStart, rec.start)
	}
	// The queue is empty once the last scenario has started; the first
	// worker to finish after that goes idle, and the sweep's tail runs on
	// fewer workers from then on.
	firstIdle := r.wall
	for _, rec := range r.recs {
		if rec.end >= lastStart && rec.end < firstIdle {
			firstIdle = rec.end
		}
	}
	slices.Sort(durs)
	m["runner.busy_s"] = busy.Seconds()
	m["runner.idle_frac"] = 1 - busy.Seconds()/(workers*r.wall.Seconds())
	m["runner.scenario_ms_p50"] = quantile(durs, 0.5)
	m["runner.scenario_ms_p90"] = quantile(durs, 0.9)
	m["runner.straggler_ms"] = ms(r.wall - firstIdle)
	m["sim.events"] = r.events
	m["sim.ns_per_event"] = ratio(float64(busy.Nanoseconds()), r.events)
	m["runtime.gc_cycles"] = float64(r.gcCycles)
	m["runtime.gc_pause_ms"] = ms(r.gcPause)

	var acquireTime, releaseTime time.Duration
	var acquires, releases int
	for i, s := range r.report.Scenarios {
		rec, met := &r.recs[i], s.Outcome.Metrics
		if p.configs[i] == nil {
			add("fanout.run_ms", ms(rec.end-rec.start))
			add("fanout.delivered", met["delivered"])
			add("fanout.expected", met["expected"])
			add("fanout.wire_msgs", met["wire_msgs"])
			add("middleware.wire_msgs", met["wire_msgs"])
			add("network.sent", met["net_msgs"])
			add("network.bytes", met["net_bytes"])
			continue
		}
		acquireTime += rec.acquireTime
		releaseTime += rec.releaseTime
		acquires += rec.acquires
		releases += rec.releases
		add("floorcontrol.build_ms", ms(rec.build))
		add("floorcontrol.completed", met["completed"])
		add("floorcontrol.expected", met["expected"])
		add("floorcontrol.offered", met["offered"])
		add("floorcontrol.served", met["served"])
		add("fault.crashes", met["crashes"])
		l := rec.layers
		add("network.sent", float64(l.netSent))
		add("network.delivered", float64(l.netDelivered))
		add("network.dropped", float64(l.netDropped))
		add("network.bytes", float64(l.netBytes))
		add("middleware.calls", float64(l.mwCalls))
		add("middleware.replies", float64(l.mwReplies))
		add("middleware.wire_msgs", float64(l.mwWire))
		add("middleware.event_deliver", float64(l.mwEventDeliver))
		add("protocol.data_sent", float64(l.rdpData))
		add("protocol.data_delivered", float64(l.rdpDelivered))
		add("protocol.retransmits", float64(l.rdpRetransmits))
		add("protocol.acks", float64(l.rdpAcks))
		add("protocol.flow_resets", float64(l.rdpFlowResets))
		add("protocol.stale_drops", float64(l.rdpStaleDrops))
		add("protocol.pdus", float64(l.pdus))
	}
	m["floorcontrol.acquire_calls"] = float64(acquires)
	m["floorcontrol.acquire_us"] = ratio(us(acquireTime), float64(acquires))
	m["floorcontrol.release_us"] = ratio(us(releaseTime), float64(releases))
	m["floorcontrol.completed_frac"] = ratio(m["floorcontrol.completed"], m["floorcontrol.expected"])
	m["floorcontrol.availability"] = ratio(m["floorcontrol.served"], m["floorcontrol.offered"])
	m["protocol.goodput_frac"] = ratio(m["protocol.data_delivered"], m["protocol.data_sent"]+m["protocol.retransmits"])
	m["fanout.delivered_frac"] = ratio(m["fanout.delivered"], m["fanout.expected"])
	for _, k := range []string{"floorcontrol.completed", "floorcontrol.expected", "floorcontrol.offered",
		"floorcontrol.served", "protocol.data_delivered", "fanout.delivered", "fanout.expected"} {
		delete(m, k)
	}
	return m
}

// cpuBuckets and allocBuckets are the profile buckets reported as
// <bucket>.cpu_frac and <bucket>.alloc_frac.
var (
	cpuBuckets   = []string{"sim", "codec", "floorcontrol", "protocol", "network", "middleware", "svc", "core"}
	allocBuckets = []string{"codec", "floorcontrol", "middleware", "core"}
)

// profileMetrics names the profile shares as per-layer metrics.
func profileMetrics(cpu, alloc map[string]float64) map[string]float64 {
	m := map[string]float64{
		"runtime.gc_cpu_frac":     cpu[bucketGC],
		"runtime.malloc_cpu_frac": cpu[bucketMalloc],
		"runtime.lock_cpu_frac":   cpu[bucketLock],
	}
	for _, b := range cpuBuckets {
		m[b+".cpu_frac"] = cpu[b]
	}
	for _, b := range allocBuckets {
		m[b+".alloc_frac"] = alloc[b]
	}
	return m
}

// allocShares buckets the process's allocation profile by bytes
// allocated. The profile is cumulative over the whole run.
func allocShares() (map[string]float64, error) {
	runtime.GC() // the allocation profile is published at GC
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("alloc profile: %w", err)
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	w := map[string]float64{}
	if err := prof.addWeights("alloc_space", false, w); err != nil {
		return nil, err
	}
	return fractions(w), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of sorted values by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the median of values, which it sorts.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	slices.Sort(values)
	n := len(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}
