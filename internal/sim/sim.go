// Package sim provides a deterministic discrete-event simulation kernel.
//
// All higher layers of this repository (the simulated network, the protocol
// framework, the middleware platform and the floor-control experiments) run
// on virtual time supplied by a Kernel. Determinism is a design goal: two
// runs with the same seed and the same schedule of calls execute the same
// events in the same order, which makes conformance traces reproducible and
// experiments comparable.
//
// # Ownership
//
// A Kernel has a single owner: one goroutine creates it and makes every
// call on it — and on every network, protocol entity, middleware platform,
// service port and observer built on it. Nothing in the stack takes a
// lock; a scenario is one single-threaded program. Concurrency lives in
// the deployment: runner.Sweep's worker pool runs many scenarios at once,
// each stack on its own goroutine, and stacks share no mutable state but
// codec's buffer pool, which is a sync.Pool for that reason. Run,
// RunUntil and Step must not be called re-entrantly from inside a handler.
//
// # Hot path
//
// The scheduler is built for throughput on the steady-state path:
//
//   - the pending queue is a concrete 4-ary min-heap ([timerHeap]) with no
//     container/heap interface boxing;
//   - every scheduled event recycles its timer struct through an
//     intrusive free list, so steady-state scheduling does not allocate;
//   - the run loop pops and fires one event at a time in (time,
//     sequence) order, so Cancel and Stop act on plain heap state.
//
// Schedule returns a [TimerRef]: a cancellable handle that checks itself
// against the timer's unique sequence number, so a stale handle never
// aliases the later event its recycled timer now carries.
package sim

import (
	"errors"
	"math/rand"
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

// timer is one scheduled event. Timers live in the heap while pending and
// go back to the kernel's free list once they fire or are cancelled.
type timer struct {
	kernel *Kernel
	next   *timer // free-list link while recycled
	seq    uint64
	at     time.Duration
	fn     func()
	index  int32 // heap index; -1 while not in the heap
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
// event of the same instant: it is still in the heap.
func (r TimerRef) Cancel() bool {
	if !r.Pending() {
		return false
	}
	t := r.t
	k := t.kernel
	k.queue.remove(int(t.index))
	t.fn = nil
	// The ref self-invalidates via the seq check, so a cancelled timer
	// can go straight back to the free list — this is what keeps
	// arm/cancel loops allocation-free.
	k.recycle(t)
	return true
}

// Pending reports whether the referenced event is still scheduled.
func (r TimerRef) Pending() bool {
	return r.t != nil && r.t.seq == r.seq && r.t.index >= 0
}

// BatchEntry describes one fire-and-forget event for ScheduleBatch. A
// negative Delay is treated as zero.
type BatchEntry struct {
	Delay time.Duration
	Fn    func()
}

// Kernel is a deterministic discrete-event scheduler over virtual time.
// Create one with NewKernel; the zero value is not usable. A Kernel and
// everything built on it belong to one goroutine (see the package doc).
type Kernel struct {
	now      time.Duration
	seq      uint64
	queue    timerHeap
	free     *timer // recycled timers, linked through timer.next
	rng      *rand.Rand
	stopped  bool
	executed uint64
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
func (k *Kernel) Now() time.Duration { return k.now }

// Executed returns the total number of events executed so far. It is used
// by experiments as a platform-neutral proxy for computational work.
func (k *Kernel) Executed() uint64 { return k.executed }

// Pending returns the number of scheduled, not yet executed events.
func (k *Kernel) Pending() int { return k.queue.len() }

// Rand returns the kernel's deterministic random source. It must only be
// used from inside event handlers (or before the simulation starts) to keep
// runs reproducible.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

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
	t := k.schedule(k.now+delay, fn)
	return TimerRef{t: t, seq: t.seq}
}

// ScheduleBatch schedules every entry in slice order (so same-instant
// entries fire FIFO in slice order). It returns no handles. It is the
// entry point used by the simulated network for link delivery and by the
// middleware platform for pub/sub fan-out.
//
//repolint:hotpath
func (k *Kernel) ScheduleBatch(entries []BatchEntry) {
	for i := range entries {
		d := entries[i].Delay
		if d < 0 {
			d = 0
		}
		k.schedule(k.now+d, entries[i].Fn)
	}
}

//repolint:hotpath
func (k *Kernel) schedule(at time.Duration, fn func()) *timer {
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
	k.queue.push(t)
	return t
}

// recycle pushes a fired or cancelled timer onto the free list. The list
// is intrusive, so recycling never allocates.
//
//repolint:hotpath
func (k *Kernel) recycle(t *timer) {
	t.next = k.free
	k.free = t
}

// Stop aborts any in-progress Run at the next event boundary. Pending
// events remain queued under their original (time, sequence) keys.
func (k *Kernel) Stop() { k.stopped = true }

// Step executes the single next event, if any, advancing virtual time to
// the event's instant. It reports whether an event was executed. Like the
// Run variants, Step honours a preceding Stop: the stop flag is consumed
// and no event runs.
//
//repolint:hotpath
func (k *Kernel) Step() bool {
	if k.stopped {
		k.stopped = false
		return false
	}
	if k.queue.len() == 0 {
		return false
	}
	k.fire(k.queue.popMin())
	return true
}

// fire executes a timer just popped from the heap. The timer goes back to
// the free list before its handler runs, so a handler that schedules
// reuses it.
//
//repolint:hotpath
func (k *Kernel) fire(t *timer) {
	k.now = t.at
	k.executed++
	fn := t.fn
	t.fn = nil
	k.recycle(t)
	fn()
}

// Run executes events until the queue is empty. It returns the number of
// events executed. It returns ErrStopped if Stop was called.
func (k *Kernel) Run() (int, error) {
	return k.run(1<<63 - 1)
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (even if no event fired exactly there). Events
// scheduled after the deadline stay queued. A stopped run leaves the clock
// at the last executed event, since events at or before the deadline may
// still be queued.
func (k *Kernel) RunUntil(deadline time.Duration) (int, error) {
	n, err := k.run(deadline)
	if err == nil && k.now < deadline {
		k.now = deadline
	}
	return n, err
}

// run executes events with timestamps <= deadline one at a time, in
// (time, sequence) order. A handler that schedules work for the current
// instant gets a larger sequence number, so that work runs after every
// event already queued for the instant. Stop is checked before each
// event; the unexecuted events stay in the heap under their keys.
func (k *Kernel) run(deadline time.Duration) (int, error) {
	executed := 0
	for {
		if k.stopped {
			k.stopped = false
			return executed, ErrStopped
		}
		if k.queue.len() == 0 || k.queue.min().at > deadline {
			return executed, nil
		}
		k.fire(k.queue.popMin())
		executed++
	}
}
