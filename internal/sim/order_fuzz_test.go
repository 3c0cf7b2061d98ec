package sim

import (
	"errors"
	"testing"
	"time"
)

// This file checks the kernel's ordering contract — heap invariant plus
// FIFO-at-same-instant — against a tiny reference scheduler, across
// arbitrary interleavings of Schedule (including past instants),
// ScheduleBatch, Cancel, Step, Stop and RunUntil. The fuzz corpus seeds are distilled from the
// op mixes of the real experiment traces: floor-control workload cycles
// (think/hold delays with a deadline stop), polling loops (many
// same-instant schedules), token-ring hops (chained short delays) and
// middleware fan-out (batched same-instant events).

// refEntry is one pending event of the reference scheduler.
type refEntry struct {
	at        time.Duration
	seq       uint64
	id        int
	spawner   bool
	cancelled bool
}

// refSched reimplements the kernel's documented semantics as an
// insertion-scanned slice: fire in (at, seq) order, clamp past times,
// consume the stop flag at run boundaries.
type refSched struct {
	now     time.Duration
	seq     uint64
	pending []refEntry
	stopped bool
	fired   []int
	nextID  int
}

func (r *refSched) schedule(at time.Duration, spawner bool) (id int, idx uint64) {
	if at < r.now {
		at = r.now
	}
	r.seq++
	id = r.nextID
	r.nextID++
	r.pending = append(r.pending, refEntry{at: at, seq: r.seq, id: id, spawner: spawner})
	return id, r.seq
}

// cancel marks the entry with sequence number seq cancelled, reporting
// whether it was still pending.
func (r *refSched) cancel(seq uint64) bool {
	for i := range r.pending {
		if r.pending[i].seq == seq && !r.pending[i].cancelled {
			r.pending[i].cancelled = true
			return true
		}
	}
	return false
}

// popMin removes and returns the earliest live entry with at <= deadline.
func (r *refSched) popMin(deadline time.Duration) (refEntry, bool) {
	best := -1
	for i := range r.pending {
		e := &r.pending[i]
		if e.cancelled || e.at > deadline {
			continue
		}
		if best < 0 || e.at < r.pending[best].at || (e.at == r.pending[best].at && e.seq < r.pending[best].seq) {
			best = i
		}
	}
	if best < 0 {
		return refEntry{}, false
	}
	e := r.pending[best]
	r.pending = append(r.pending[:best], r.pending[best+1:]...)
	return e, true
}

func (r *refSched) fire(e refEntry) {
	r.now = e.at
	r.fired = append(r.fired, e.id)
	if e.spawner {
		// Mirrors the kernel-side spawner handler: a child recording
		// event at the same instant, scheduled from inside the handler.
		r.schedule(r.now, false)
	}
}

func (r *refSched) step() bool {
	if r.stopped {
		r.stopped = false
		return false
	}
	e, ok := r.popMin(1<<62 - 1)
	if !ok {
		return false
	}
	r.fire(e)
	return true
}

// run fires live entries with at <= deadline without touching the clock
// afterwards (the semantics of Kernel.Run).
func (r *refSched) run(deadline time.Duration) (int, error) {
	n := 0
	for {
		if r.stopped {
			r.stopped = false
			return n, ErrStopped
		}
		e, ok := r.popMin(deadline)
		if !ok {
			return n, nil
		}
		r.fire(e)
		n++
	}
}

// runUntil mirrors Kernel.RunUntil: like run, but the clock advances to
// the deadline afterwards unless the run was stopped.
func (r *refSched) runUntil(deadline time.Duration) (int, error) {
	n, err := r.run(deadline)
	if err == nil && r.now < deadline {
		r.now = deadline
	}
	return n, err
}

func (r *refSched) livePending() int {
	n := 0
	for i := range r.pending {
		if !r.pending[i].cancelled {
			n++
		}
	}
	return n
}

// checkHeapInvariant verifies the 4-ary heap property and the index
// back-pointers of every queued timer.
func checkHeapInvariant(t *testing.T, k *Kernel) {
	t.Helper()
	for i, x := range k.queue.a {
		if int(x.index) != i {
			t.Fatalf("timer at heap slot %d has index %d", i, x.index)
		}
		if x.fn == nil {
			t.Fatalf("timer at heap slot %d has no handler", i)
		}
		if i > 0 {
			p := (i - 1) >> 2
			if timerLess(x, k.queue.a[p]) {
				t.Fatalf("heap invariant violated: slot %d < parent %d", i, p)
			}
		}
	}
}

// runOrderingProgram interprets program twice — once against the real
// kernel, once against the reference scheduler — and fails on any
// divergence in firing order, clock, executed counts, Cancel results or
// pending counts.
func runOrderingProgram(t *testing.T, program []byte) {
	k := NewKernel()
	ref := &refSched{}
	var fired []int
	nextID := 0
	record := func(id int) func() { return func() { fired = append(fired, id) } }
	spawn := func(id int) func() {
		return func() {
			fired = append(fired, id)
			childID := nextID
			nextID++
			k.Schedule(0, record(childID))
		}
	}
	// handles holds refs side by side with the reference sequence numbers
	// they correspond to. A ref whose timer has been recycled must stay
	// inert, exactly like the reference's fired entry.
	var handles []TimerRef
	var handleSeqs []uint64

	for i := 0; i+1 < len(program); i += 2 {
		op, arg := program[i]%8, time.Duration(program[i+1])
		switch op {
		case 0, 1: // Schedule
			id := nextID
			nextID++
			handles = append(handles, k.Schedule(arg*time.Microsecond, record(id)))
			_, seq := ref.schedule(ref.now+arg*time.Microsecond, false)
			handleSeqs = append(handleSeqs, seq)
		case 2: // Schedule at an absolute instant, possibly in the past
			id := nextID
			nextID++
			handles = append(handles, k.Schedule(arg*16*time.Microsecond-k.Now(), record(id)))
			_, seq := ref.schedule(arg*16*time.Microsecond, false)
			handleSeqs = append(handleSeqs, seq)
		case 3: // ScheduleBatch (fire-and-forget, FIFO within the batch)
			entries := make([]BatchEntry, 3)
			for j := range entries {
				d := (arg + time.Duration(j)*13) * time.Microsecond
				id := nextID
				nextID++
				entries[j] = BatchEntry{Delay: d, Fn: record(id)}
				ref.schedule(ref.now+d, false)
			}
			k.ScheduleBatch(entries)
		case 4: // spawner: handler schedules a same-instant child
			id := nextID
			nextID++
			handles = append(handles, k.Schedule(arg*time.Microsecond, spawn(id)))
			_, seq := ref.schedule(ref.now+arg*time.Microsecond, true)
			handleSeqs = append(handleSeqs, seq)
		case 5: // Cancel an arbitrary handle
			if len(handles) > 0 {
				j := int(arg) % len(handles)
				got := handles[j].Cancel()
				want := ref.cancel(handleSeqs[j])
				if got != want {
					t.Fatalf("op %d: Cancel(handle %d) = %v, reference %v", i, j, got, want)
				}
			}
		case 6: // Step
			got := k.Step()
			want := ref.step()
			if got != want {
				t.Fatalf("op %d: Step = %v, reference %v", i, got, want)
			}
		case 7: // Stop or RunUntil, biased toward running
			if arg%5 == 0 {
				k.Stop()
				ref.stopped = true
				continue
			}
			deadline := k.Now() + arg*2*time.Microsecond
			gotN, gotErr := k.RunUntil(deadline)
			wantN, wantErr := ref.runUntil(deadline)
			if gotN != wantN || !errors.Is(gotErr, wantErr) {
				t.Fatalf("op %d: RunUntil = (%d, %v), reference (%d, %v)", i, gotN, gotErr, wantN, wantErr)
			}
		}
		checkHeapInvariant(t, k)
		if got, want := k.Now(), ref.now; got != want {
			t.Fatalf("op %d: Now = %v, reference %v", i, got, want)
		}
	}

	// Drain both sides completely (a pending Stop aborts the first Run).
	for {
		_, err := k.Run()
		_, refErr := ref.run(1<<62 - 1)
		if !errors.Is(err, refErr) {
			t.Fatalf("drain: Run err = %v, reference %v", err, refErr)
		}
		if err == nil {
			break
		}
	}
	if len(fired) != len(ref.fired) {
		t.Fatalf("fired %d events, reference %d", len(fired), len(ref.fired))
	}
	for i := range fired {
		if fired[i] != ref.fired[i] {
			t.Fatalf("firing order diverges at %d: kernel %v, reference %v", i, fired, ref.fired)
		}
	}
	if got, want := k.Pending(), ref.livePending(); got != want {
		t.Fatalf("Pending = %d after drain, reference %d", got, want)
	}
	if got, want := k.Executed(), uint64(len(ref.fired)); got != want {
		t.Fatalf("Executed = %d, reference %d", got, want)
	}
}

func FuzzKernelOrdering(f *testing.F) {
	// Floor-control cycle shape: scattered schedules (think), a run, more
	// schedules (hold), a deadline stop, a final run.
	f.Add([]byte{0, 200, 0, 120, 4, 80, 7, 255, 0, 40, 7, 5, 7, 254})
	// Polling loop shape: many same-instant schedules, stepped one by one.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 6, 0, 6, 0, 6, 0, 6, 0, 7, 251})
	// Token-ring shape: chained short delays with cancellations.
	f.Add([]byte{0, 3, 0, 6, 0, 9, 5, 1, 0, 12, 5, 0, 7, 249})
	// Middleware fan-out shape: batches, a spawner, past-time schedules.
	f.Add([]byte{3, 50, 4, 50, 3, 50, 2, 1, 7, 252, 2, 200, 7, 244})
	// Stop/Step interleavings.
	f.Add([]byte{0, 10, 7, 5, 6, 0, 0, 10, 6, 0, 7, 5, 7, 247, 6, 0})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 4096 {
			t.Skip("program too long")
		}
		runOrderingProgram(t, program)
	})
}

// TestKernelOrderingTraceCorpus replays longer pseudo-random programs —
// op mixes matched to the experiment traces — so the property is checked
// on every plain `go test` run, not only under `go test -fuzz`.
func TestKernelOrderingTraceCorpus(t *testing.T) {
	x := uint64(2026)
	next := func() byte {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return byte(x)
	}
	for trace := 0; trace < 20; trace++ {
		program := make([]byte, 400)
		for i := range program {
			program[i] = next()
		}
		runOrderingProgram(t, program)
	}
}
