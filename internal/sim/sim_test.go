package sim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	n, err := k.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", k.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(-time.Second, func() { fired = true })
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Fatal("event with negative delay did not fire")
	}
	if k.Now() != 0 {
		t.Fatalf("Now = %v, want 0", k.Now())
	}
}

// TestScheduleAtPastClamps schedules for an absolute instant that has
// already passed (a delay of at-now < 0): the event runs at the current
// instant, not in the past.
func TestScheduleAtPastClamps(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*time.Millisecond, func() {
		k.Schedule(time.Millisecond-k.Now(), func() {
			if k.Now() != 10*time.Millisecond {
				t.Errorf("past event ran at %v, want 10ms", k.Now())
			}
		})
	})
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want 10ms", k.Now())
	}
}

func TestReentrantScheduling(t *testing.T) {
	k := NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			k.Schedule(time.Second, tick)
		}
	}
	k.Schedule(0, tick)
	n, err := k.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 5 || count != 5 {
		t.Fatalf("n=%d count=%d, want 5", n, count)
	}
	if k.Now() != 4*time.Second {
		t.Fatalf("Now = %v, want 4s", k.Now())
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ref := k.Schedule(time.Second, func() { fired = true })
	if !ref.Pending() {
		t.Fatal("timer should be pending")
	}
	if !ref.Cancel() {
		t.Fatal("Cancel should report true for pending timer")
	}
	if ref.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestCancelMiddleOfQueue(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	mid := k.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	k.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	mid.Cancel()
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("got %v, want [1 3]", got)
	}
}

func TestCancelAfterFire(t *testing.T) {
	k := NewKernel()
	ref := k.Schedule(0, func() {})
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ref.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
	if ref.Pending() {
		t.Fatal("fired timer should not be pending")
	}
}

// TestCancelNil pins that a ref without a timer is inert whatever its
// sequence number.
func TestCancelNil(t *testing.T) {
	ref := TimerRef{seq: 1}
	if ref.Cancel() {
		t.Fatal("nil timer Cancel should be false")
	}
	if ref.Pending() {
		t.Fatal("nil timer Pending should be false")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(1*time.Second, func() { got = append(got, 1) })
	k.Schedule(2*time.Second, func() { got = append(got, 2) })
	k.Schedule(3*time.Second, func() { got = append(got, 3) })
	n, err := k.RunUntil(2 * time.Second)
	if err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if n != 2 {
		t.Fatalf("executed %d, want 2", n)
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", k.Pending())
	}
	// Resume.
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("got %v, want all three", got)
	}
}

// TestRunUntilStopKeepsClock stops a RunUntil before its deadline while
// an earlier event is still queued: the clock must stay at the stop, so
// the next Run never moves virtual time backwards.
func TestRunUntilStopKeepsClock(t *testing.T) {
	k := NewKernel()
	k.Schedule(time.Millisecond, k.Stop)
	k.Schedule(2*time.Millisecond, func() {})
	if n, err := k.RunUntil(10 * time.Millisecond); !errors.Is(err, ErrStopped) || n != 1 {
		t.Fatalf("RunUntil = (%d, %v), want 1 event and ErrStopped", n, err)
	}
	if k.Now() != time.Millisecond {
		t.Fatalf("Now = %v after stopped RunUntil, want 1ms", k.Now())
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k.Now() != 2*time.Millisecond {
		t.Fatalf("Now = %v after draining the 2ms event, want 2ms", k.Now())
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	k := NewKernel()
	if _, err := k.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if k.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 0; i < 10; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	n, err := k.Run()
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if n != 3 {
		t.Fatalf("executed %d, want 3", n)
	}
	// A subsequent Run drains the rest.
	n, err = k.Run()
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if n != 7 {
		t.Fatalf("second Run executed %d, want 7", n)
	}
}

func TestStep(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.Schedule(time.Millisecond, func() { fired++ })
	k.Schedule(2*time.Millisecond, func() { fired++ })
	if !k.Step() {
		t.Fatal("Step should execute first event")
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if !k.Step() {
		t.Fatal("Step should execute second event")
	}
	if k.Step() {
		t.Fatal("Step on empty queue should report false")
	}
}

func TestStepHonorsStop(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(time.Millisecond, func() { fired = true })
	k.Stop()
	if k.Step() {
		t.Fatal("Step after Stop should not execute an event")
	}
	if fired {
		t.Fatal("event fired despite Stop")
	}
	// The stop flag is consumed, exactly as in Run: the next Step proceeds.
	if !k.Step() {
		t.Fatal("Step after a consumed stop should execute")
	}
	if !fired {
		t.Fatal("event did not fire after consumed stop")
	}
}

// TestScheduleFuncFIFOWithSchedule pins one FIFO across both scheduling
// calls: same-instant events from Schedule and ScheduleBatch run in the
// order they were scheduled.
func TestScheduleFuncFIFOWithSchedule(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(time.Millisecond, func() { got = append(got, 1) })
	k.ScheduleBatch([]BatchEntry{{Delay: time.Millisecond, Fn: func() { got = append(got, 2) }}})
	k.Schedule(time.Millisecond, func() { got = append(got, 3) })
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("mixed-path FIFO violated: %v", got)
		}
	}
}

func TestScheduleBatchOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(2*time.Millisecond, func() { got = append(got, 10) })
	k.ScheduleBatch([]BatchEntry{
		{Delay: 2 * time.Millisecond, Fn: func() { got = append(got, 11) }},
		{Delay: time.Millisecond, Fn: func() { got = append(got, 12) }},
		{Delay: 2 * time.Millisecond, Fn: func() { got = append(got, 13) }},
		{Delay: -time.Second, Fn: func() { got = append(got, 14) }}, // clamps to now
	})
	n, err := k.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n != 5 {
		t.Fatalf("executed %d, want 5", n)
	}
	want := []int{14, 12, 10, 11, 13}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch order %v, want %v", got, want)
		}
	}
}

func TestScheduleBatchNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil batch function")
		}
	}()
	NewKernel().ScheduleBatch([]BatchEntry{{Fn: nil}})
}

// TestFreeListReuse pins the allocation-free steady state: after warm-up,
// scheduling must recycle timers instead of allocating.
func TestFreeListReuse(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 100; i++ {
		k.Schedule(time.Duration(i)*time.Microsecond, fn)
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("warm-up Run: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 100; i++ {
			k.Schedule(time.Duration(i)*time.Microsecond, fn)
		}
		if _, err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	})
	if allocs > 1 {
		t.Fatalf("steady-state Schedule+Run allocates %.1f per 100-event cycle, want ~0", allocs)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed int64) []time.Duration {
		k := NewKernel(WithSeed(seed))
		var out []time.Duration
		var step func()
		step = func() {
			out = append(out, k.Now())
			if len(out) < 50 {
				k.Schedule(time.Duration(k.Rand().Intn(1000))*time.Microsecond, step)
			}
		}
		k.Schedule(0, step)
		if _, err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestExecutedCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.Schedule(0, func() {})
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k.Executed() != 7 {
		t.Fatalf("Executed = %d, want 7", k.Executed())
	}
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil function")
		}
	}()
	NewKernel().Schedule(0, nil)
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock ends at the maximum delay.
func TestPropertyMonotonicClock(t *testing.T) {
	prop := func(delays []uint16) bool {
		k := NewKernel()
		var times []time.Duration
		var max time.Duration
		for _, d := range delays {
			dur := time.Duration(d) * time.Microsecond
			if dur > max {
				max = dur
			}
			k.Schedule(dur, func() { times = append(times, k.Now()) })
		}
		if _, err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(delays) == 0 || k.Now() == max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset leaves exactly the complement to
// fire.
func TestPropertyCancelSubset(t *testing.T) {
	prop := func(delays []uint8, mask []bool) bool {
		k := NewKernel()
		fired := 0
		var refs []TimerRef
		for _, d := range delays {
			refs = append(refs, k.Schedule(time.Duration(d)*time.Millisecond, func() { fired++ }))
		}
		cancelled := 0
		for i, ref := range refs {
			if i < len(mask) && mask[i] {
				if ref.Cancel() {
					cancelled++
				}
			}
		}
		if _, err := k.Run(); err != nil {
			return false
		}
		return fired == len(delays)-cancelled
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for j := 0; j < 100; j++ {
			k.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScheduleFuncRefCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ref := k.Schedule(time.Second, func() { fired = true })
	if !ref.Pending() {
		t.Fatal("ref should be pending")
	}
	if !ref.Cancel() {
		t.Fatal("Cancel should report true for pending ref")
	}
	if ref.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	if ref.Pending() {
		t.Fatal("cancelled ref should not be pending")
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled ref fired")
	}
}

func TestTimerRefZeroValueInert(t *testing.T) {
	var ref TimerRef
	if ref.Cancel() {
		t.Fatal("zero ref Cancel should be false")
	}
	if ref.Pending() {
		t.Fatal("zero ref Pending should be false")
	}
}

// TestTimerRefStaleAfterRecycle pins the aliasing guarantee: once a
// timer fires and its struct is recycled into a later
// event, a retained ref to the earlier event must be inert — it must not
// cancel (or report pending for) the recycled timer.
func TestTimerRefStaleAfterRecycle(t *testing.T) {
	k := NewKernel()
	ref := k.Schedule(0, func() {})
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ref.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
	// Burn through the free list until the original struct is reused.
	fired := 0
	for i := 0; i < 16; i++ {
		k.Schedule(0, func() { fired++ })
	}
	if ref.Cancel() || ref.Pending() {
		t.Fatal("stale ref must stay inert after its timer is recycled")
	}
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 16 {
		t.Fatalf("stale ref cancelled a recycled timer: fired %d of 16", fired)
	}
}

// TestScheduleFuncRefRecycles verifies that a kept ref does not pin its
// timer: an arm/fire/re-arm loop must not allocate at steady state.
func TestScheduleFuncRefRecycles(t *testing.T) {
	k := NewKernel()
	allocs := testing.AllocsPerRun(1000, func() {
		ref := k.Schedule(0, func() {})
		_ = ref
		k.Step()
	})
	if allocs > 0 {
		t.Fatalf("Schedule+Step allocated %.1f per op, want 0", allocs)
	}
}

// TestCancelSameInstant cancels an event from an earlier event of the
// same instant: the later event is still in the heap and never fires.
func TestCancelSameInstant(t *testing.T) {
	k := NewKernel()
	fired := false
	var ref TimerRef
	k.Schedule(time.Millisecond, func() {
		if !ref.Cancel() {
			t.Error("same-instant Cancel should report true")
		}
	})
	ref = k.Schedule(time.Millisecond, func() { fired = true })
	if _, err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("ref cancelled at its own instant still fired")
	}
}

// TestStopMidInstant calls Stop from a handler between events of one
// instant: Run returns ErrStopped, the unexecuted events stay in the heap
// under their original keys, and the next Run fires them in FIFO order.
func TestStopMidInstant(t *testing.T) {
	k := NewKernel()
	var got []int
	refs := make([]TimerRef, 4)
	for i := range refs {
		i := i
		refs[i] = k.Schedule(time.Millisecond, func() {
			got = append(got, i)
			if i == 1 {
				k.Stop()
			}
		})
	}
	n, err := k.Run()
	if !errors.Is(err, ErrStopped) || n != 2 {
		t.Fatalf("stopped Run = (%d, %v), want 2 events and ErrStopped", n, err)
	}
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d after mid-instant stop, want 2", k.Pending())
	}
	for i, ref := range refs {
		if want := i >= 2; ref.Pending() != want {
			t.Fatalf("ref %d Pending = %v, want %v", i, ref.Pending(), want)
		}
	}
	if k.Now() != time.Millisecond {
		t.Fatalf("Now = %v, want 1ms", k.Now())
	}
	if n, err := k.Run(); err != nil || n != 2 {
		t.Fatalf("replay Run = (%d, %v), want (2, nil)", n, err)
	}
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}
