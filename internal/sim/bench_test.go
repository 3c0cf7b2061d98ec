package sim

import (
	"errors"
	"testing"
	"time"
)

// The benchmarks below are the kernel's permanent performance surface:
// cmd/benchcmp compares their results against the committed
// BENCH_kernel.json baseline in the CI bench-regression job. Names are
// load-bearing — renaming one silently drops it from the gate until the
// baseline is refreshed.

// BenchmarkCalibrate is a fixed arithmetic workload used by cmd/benchcmp
// (-normalize Calibrate) to factor out raw machine speed when comparing
// runs from different hosts: all other results are expressed relative to
// this one.
func BenchmarkCalibrate(b *testing.B) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	benchSink = x
}

var benchSink uint64

// BenchmarkSteadyStateScheduleRun measures the allocation-free steady
// state: a single self-rescheduling event whose ref is ignored.
// One iteration = one schedule + one pop + one dispatch. allocs/op must
// stay ~0 — that is the acceptance criterion of the pooled fast path.
func BenchmarkSteadyStateScheduleRun(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	remaining := b.N
	var tick func()
	tick = func() {
		remaining--
		if remaining > 0 {
			k.Schedule(time.Microsecond, tick)
		}
	}
	k.Schedule(time.Microsecond, tick)
	b.ResetTimer()
	if _, err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleFuncRunSmall drains a small (100-timer) queue per
// iteration, ignoring every ref, with the free list warm across
// iterations.
func BenchmarkScheduleFuncRunSmall(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			k.Schedule(time.Duration(j)*time.Microsecond, fn)
		}
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleRunSmallHandles is the same drain keeping every
// ref, as callers that may cancel do.
func BenchmarkScheduleRunSmallHandles(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	fn := func() {}
	refs := make([]TimerRef, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range refs {
			refs[j] = k.Schedule(time.Duration(j)*time.Microsecond, fn)
		}
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeepQueue100k measures per-event cost with a standing queue of
// 100k timers: every executed event reschedules itself behind the queue,
// so each op is one pop + one push against a deep heap.
func BenchmarkDeepQueue100k(b *testing.B) {
	b.ReportAllocs()
	const depth = 100_000
	k := NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count >= b.N {
			k.Stop()
			return
		}
		k.Schedule(depth*time.Microsecond, tick)
	}
	for i := 0; i < depth; i++ {
		k.Schedule(time.Duration(i)*time.Microsecond, tick)
	}
	b.ResetTimer()
	if _, err := k.Run(); err != nil && !errors.Is(err, ErrStopped) {
		b.Fatal(err)
	}
}

// BenchmarkScheduleCancel measures the cancel path: schedule far in the
// future, cancel immediately (heap remove of a fresh leaf).
func BenchmarkScheduleCancel(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !k.Schedule(time.Hour, fn).Cancel() {
			b.Fatal("cancel failed")
		}
	}
}

// BenchmarkFanOutBatch64 measures the batch path used by network
// fan-out: 64 events scheduled under one lock, then drained.
func BenchmarkFanOutBatch64(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	fn := func() {}
	entries := make([]BatchEntry, 64)
	for i := range entries {
		entries[i] = BatchEntry{Delay: time.Duration(i) * time.Microsecond, Fn: fn}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleBatch(entries)
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStep measures the single-step entry point.
func BenchmarkStep(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Microsecond, fn)
		if !k.Step() {
			b.Fatal("step had no event")
		}
	}
}
