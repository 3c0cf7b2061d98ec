package sim

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentCancelDuringRun races external Cancel calls against the
// running kernel. The schedule packs many events into few instants so the
// run loop executes large same-instant batches, which is exactly where
// Cancel and the dispatch loop contend on the per-timer state word.
// Every timer must either fire or be cancelled — never both, never
// neither.
func TestConcurrentCancelDuringRun(t *testing.T) {
	const n = 20000
	k := NewKernel()
	var fired atomic.Int64
	refs := make([]TimerRef, n)
	for i := range refs {
		refs[i] = k.Schedule(time.Duration(i%40)*time.Microsecond, func() { fired.Add(1) })
	}

	var cancelled atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 4 {
				if i%3 == 0 && refs[i].Cancel() {
					cancelled.Add(1)
				}
			}
		}(w)
	}

	executed, err := k.Run()
	wg.Wait()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if int64(executed) != fired.Load() {
		t.Fatalf("Run reported %d events, handlers saw %d", executed, fired.Load())
	}
	if got := fired.Load() + cancelled.Load(); got != n {
		t.Fatalf("fired %d + cancelled %d = %d, want %d", fired.Load(), cancelled.Load(), got, n)
	}
	if k.Executed() != uint64(fired.Load()) {
		t.Fatalf("Executed = %d, want %d", k.Executed(), fired.Load())
	}
}

// TestConcurrentScheduleDuringRun races external Schedule calls (a
// concurrency-safe public entry point) against a draining kernel: all
// events scheduled before Run finishes its final batch must be counted
// by the end of the second drain.
func TestConcurrentScheduleDuringRun(t *testing.T) {
	const n = 5000
	k := NewKernel()
	var fired atomic.Int64
	count := func() { fired.Add(1) }

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			k.Schedule(time.Duration(i%7)*time.Microsecond, count)
		}
	}()

	// Keep draining until the producer is done and the queue is empty.
	for {
		if _, err := k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		select {
		case <-done:
			if _, err := k.Run(); err != nil {
				t.Fatalf("final Run: %v", err)
			}
			if fired.Load() != n {
				t.Fatalf("fired %d, want %d", fired.Load(), n)
			}
			return
		default:
		}
	}
}
