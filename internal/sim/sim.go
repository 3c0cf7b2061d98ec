// Package sim provides a deterministic discrete-event simulation kernel.
//
// All higher layers of this repository (the simulated network, the protocol
// framework, the middleware platform and the floor-control experiments) run
// on virtual time supplied by a Kernel. Determinism is a design goal: two
// runs with the same seed and the same schedule of calls execute the same
// events in the same order, which makes conformance traces reproducible and
// experiments comparable.
//
// The kernel is intentionally single-threaded: events run one at a time, in
// (time, sequence) order. Public entry points are safe for concurrent use,
// but event handlers themselves always execute sequentially, and Run, RunUntil
// and Step must not be called re-entrantly from inside a handler.
//
// # Hot path
//
// The scheduler is built for throughput on the steady-state path:
//
//   - the pending queue is a concrete 4-ary min-heap ([timerHeap]) with no
//     container/heap interface boxing;
//   - every scheduled event recycles its timer struct through a free
//     list, so steady-state scheduling does not allocate;
//   - the run loop pops all events of one instant in a single critical
//     section and executes them outside the lock, coordinating with
//     concurrent Cancel through a per-timer atomic state word instead of
//     re-locking per event.
//
// Schedule returns a [TimerRef]: a cancellable handle that checks itself
// against the timer's unique sequence number, so a stale handle never
// aliases the later event its recycled timer now carries.
package sim

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStopped is returned by Run variants when the kernel was explicitly
// stopped before the run condition was reached.
var ErrStopped = errors.New("sim: kernel stopped")

// Option configures a Kernel.
type Option func(*Kernel)

// WithSeed sets the seed of the kernel's deterministic random source.
// The default seed is 1.
func WithSeed(seed int64) Option {
	return func(k *Kernel) { k.rng = rand.New(rand.NewSource(seed)) }
}

// timer lifecycle states. Transitions into and out of statePending happen
// under the kernel mutex; the stateRunnable→stateDone transition is a CAS
// raced between the run loop (about to execute) and Cancel, which is what
// keeps the batch execution path lock-free.
const (
	stateDone     int32 = iota // fired, cancelled, or on the free list
	statePending               // in the heap
	stateRunnable              // popped into the current run batch
)

// timer is one scheduled event. Timers live in the heap while pending and
// go back to the kernel's free list once they fire or are cancelled.
type timer struct {
	kernel *Kernel
	next   *timer // free-list link while recycled
	seq    uint64
	at     time.Duration
	fn     func()
	index  int32 // heap index; -1 while not in the heap
	state  atomic.Int32
}

// TimerRef is a cancellable handle to a scheduled event, returned by
// Kernel.Schedule. It does not pin the underlying timer: the kernel
// recycles the timer through its free list as soon as the event fires or
// is cancelled, and the ref validates itself against the timer's unique
// sequence number — a stale ref (whose timer now carries a later event)
// is simply inert. Arming and cancelling a timer per message (for
// example a retransmission timer) therefore allocates nothing.
//
// The zero TimerRef is valid and inert: Cancel and Pending return false.
type TimerRef struct {
	t   *timer
	seq uint64
}

// Cancel removes the referenced event from the schedule, reporting
// whether it was still pending. Cancelling a fired, already-cancelled or
// recycled timer is a safe no-op returning false. An event at the
// instant currently being executed can still be cancelled by an earlier
// event of the same instant, exactly as if it were in the heap.
func (r TimerRef) Cancel() bool {
	t := r.t
	if t == nil {
		return false
	}
	k := t.kernel
	k.mu.Lock()
	defer k.mu.Unlock()
	if t.seq != r.seq {
		return false // recycled into a later event: stale ref
	}
	switch t.state.Load() {
	case statePending:
		k.queue.remove(int(t.index))
		t.state.Store(stateDone)
		t.fn = nil
		k.pending.Add(-1)
		// The ref self-invalidates via the seq check, so a cancelled
		// timer can go straight back to the free list — this is what
		// keeps arm/cancel loops allocation-free.
		k.recycleLocked(t)
		return true
	case stateRunnable:
		// The timer sits in an executing batch; race the run loop for it.
		if t.state.CompareAndSwap(stateRunnable, stateDone) {
			t.fn = nil
			k.pending.Add(-1)
			return true
		}
		return false
	default:
		return false
	}
}

// Pending reports whether the referenced event is still scheduled.
func (r TimerRef) Pending() bool {
	t := r.t
	if t == nil {
		return false
	}
	t.kernel.mu.Lock()
	defer t.kernel.mu.Unlock()
	return t.seq == r.seq && t.state.Load() != stateDone
}

// BatchEntry describes one fire-and-forget event for ScheduleBatch. A
// negative Delay is treated as zero.
type BatchEntry struct {
	Delay time.Duration
	Fn    func()
}

// Kernel is a deterministic discrete-event scheduler over virtual time.
// Create one with NewKernel; the zero value is not usable.
type Kernel struct {
	mu    sync.Mutex
	now   time.Duration
	seq   uint64
	queue timerHeap
	free  *timer   // recycled timers, linked through timer.next
	batch []*timer // events of the instant being executed
	rng   *rand.Rand

	stopped  atomic.Bool
	executed atomic.Uint64
	// pending mirrors queue length + runnable batch entries so Pending
	// can serve the stats path lock-free, like the executed counter. It
	// is incremented on schedule and decremented exactly once per event
	// on execution or successful cancellation.
	pending atomic.Int64
}

// NewKernel returns a kernel at virtual time zero.
func NewKernel(opts ...Option) *Kernel {
	k := &Kernel{rng: rand.New(rand.NewSource(1))}
	for _, opt := range opts {
		opt(k)
	}
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// Executed returns the total number of events executed so far. It is used
// by experiments as a platform-neutral proxy for computational work.
func (k *Kernel) Executed() uint64 { return k.executed.Load() }

// Pending returns the number of scheduled, not yet executed events. It
// reads a cached length maintained alongside the heap, so the stats
// path never contends with the scheduling hot path for the kernel lock
// (the same pattern as Executed).
func (k *Kernel) Pending() int { return int(k.pending.Load()) }

// Rand returns the kernel's deterministic random source. It must only be
// used from inside event handlers (or before the simulation starts) to keep
// runs reproducible.
func (k *Kernel) Rand() *rand.Rand {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.rng
}

// Schedule arranges for fn to run after delay of virtual time. A negative
// delay is treated as zero. Events scheduled for the same instant run in
// scheduling order (FIFO). The returned ref cancels the event; callers
// that never cancel ignore it. Steady-state Schedule+Run does not
// allocate.
//
//repolint:hotpath
func (k *Kernel) Schedule(delay time.Duration, fn func()) TimerRef {
	if delay < 0 {
		delay = 0
	}
	k.mu.Lock()
	t := k.scheduleLocked(k.now+delay, fn)
	ref := TimerRef{t: t, seq: t.seq}
	k.mu.Unlock()
	return ref
}

// ScheduleBatch schedules every entry under a single lock acquisition, in
// slice order (so same-instant entries fire FIFO in slice order). It
// returns no handles. It is the entry point used by the simulated network
// for link delivery and by the middleware platform for pub/sub fan-out.
//
//repolint:hotpath
func (k *Kernel) ScheduleBatch(entries []BatchEntry) {
	if len(entries) == 0 {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := range entries {
		d := entries[i].Delay
		if d < 0 {
			d = 0
		}
		k.scheduleLocked(k.now+d, entries[i].Fn)
	}
}

//repolint:hotpath
func (k *Kernel) scheduleLocked(at time.Duration, fn func()) *timer {
	if fn == nil {
		panic("sim: Schedule called with nil function")
	}
	k.seq++
	t := k.free
	if t != nil {
		k.free = t.next
		t.next = nil
	} else {
		t = &timer{kernel: k}
	}
	t.seq = k.seq
	t.at = at
	t.fn = fn
	t.state.Store(statePending)
	k.pending.Add(1)
	k.queue.push(t)
	return t
}

// recycleLocked pushes a fired or cancelled timer onto the free list.
// The list is intrusive, so recycling never allocates.
//
//repolint:hotpath
func (k *Kernel) recycleLocked(t *timer) {
	t.next = k.free
	k.free = t
}

// recycleBatchLocked returns executed (or cancelled) timers of the
// previous batch to the free list. Timers that were pushed back into
// the heap by an aborted batch are statePending and skipped.
//
//repolint:hotpath
func (k *Kernel) recycleBatchLocked() {
	for i, t := range k.batch {
		if t.state.Load() == stateDone {
			k.recycleLocked(t)
		}
		k.batch[i] = nil
	}
	k.batch = k.batch[:0]
}

// Stop aborts any in-progress Run at the next event boundary. Pending
// events remain queued.
func (k *Kernel) Stop() { k.stopped.Store(true) }

// Step executes the single next event, if any, advancing virtual time to
// the event's instant. It reports whether an event was executed. Like the
// Run variants, Step honours a preceding Stop: the stop flag is consumed
// and no event runs.
//
//repolint:hotpath
func (k *Kernel) Step() bool {
	k.mu.Lock()
	k.recycleBatchLocked()
	if k.stopped.CompareAndSwap(true, false) {
		k.mu.Unlock()
		return false
	}
	if k.queue.len() == 0 {
		k.mu.Unlock()
		return false
	}
	t := k.queue.popMin()
	t.state.Store(stateDone)
	k.pending.Add(-1)
	k.now = t.at
	k.executed.Add(1)
	fn := t.fn
	t.fn = nil
	k.recycleLocked(t)
	k.mu.Unlock()
	fn()
	return true
}

// Run executes events until the queue is empty. It returns the number of
// events executed. It returns ErrStopped if Stop was called.
func (k *Kernel) Run() (int, error) {
	return k.run(nil)
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (even if no event fired exactly there). Events
// scheduled after the deadline stay queued.
func (k *Kernel) RunUntil(deadline time.Duration) (int, error) {
	n, err := k.run(func() bool {
		return k.queue.min().at <= deadline
	})
	k.mu.Lock()
	if k.now < deadline {
		k.now = deadline
	}
	k.mu.Unlock()
	return n, err
}

// run executes events while cond (evaluated under the lock, with a
// non-empty queue, once per instant) holds; a nil cond means "always".
//
// Each loop iteration pops every event of the earliest instant into a
// batch in one critical section and executes the batch outside the lock:
// the mutex is taken per instant, not per event. Handlers scheduling new
// work for the same instant are still ordered correctly — their sequence
// numbers exceed those of the batch, so they join the next batch of the
// same instant. Stop is checked between events (lock-free), and an
// aborted batch pushes its unexecuted tail back into the heap with the
// original (at, seq) keys, which restores the exact order.
func (k *Kernel) run(cond func() bool) (int, error) {
	executed := 0
	for {
		k.mu.Lock()
		k.recycleBatchLocked()
		if k.stopped.CompareAndSwap(true, false) {
			k.mu.Unlock()
			return executed, ErrStopped
		}
		if k.queue.len() == 0 || (cond != nil && !cond()) {
			k.mu.Unlock()
			return executed, nil
		}
		at := k.queue.min().at
		k.now = at
		for k.queue.len() > 0 && k.queue.min().at == at {
			t := k.queue.popMin()
			t.state.Store(stateRunnable)
			k.batch = append(k.batch, t)
		}
		k.mu.Unlock()

		for i, t := range k.batch {
			if k.stopped.CompareAndSwap(true, false) {
				k.abortBatchFrom(i)
				return executed, ErrStopped
			}
			if !t.state.CompareAndSwap(stateRunnable, stateDone) {
				continue // cancelled while in the batch
			}
			fn := t.fn
			t.fn = nil
			k.pending.Add(-1)
			k.executed.Add(1)
			fn()
			executed++
		}
	}
}

// abortBatchFrom pushes the unexecuted batch tail starting at index i back
// into the heap and recycles the executed prefix.
func (k *Kernel) abortBatchFrom(i int) {
	k.mu.Lock()
	for _, t := range k.batch[i:] {
		if t.state.CompareAndSwap(stateRunnable, statePending) {
			k.queue.push(t)
		}
	}
	k.recycleBatchLocked()
	k.mu.Unlock()
}
