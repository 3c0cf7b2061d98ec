package network

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// The tests in this file pin copy-once multicast: every send call copies
// its payload exactly once into a shared payload that all of its
// deliveries and duplicates reference, and that copy is recycled when
// the last of them has been handled.

// fanoutFabric registers a source and dsts destinations whose handlers
// record every delivered payload (bytes and backing array).
type fanoutFabric struct {
	kernel *sim.Kernel
	net    *Network
	src    Slot
	dsts   []Slot
	got    map[Slot][][]byte
	bases  map[*byte]bool
}

func newFanoutFabric(t *testing.T, dsts int, cfg LinkConfig) *fanoutFabric {
	t.Helper()
	f := &fanoutFabric{
		kernel: sim.NewKernel(sim.WithSeed(3)),
		got:    make(map[Slot][][]byte),
		bases:  make(map[*byte]bool),
	}
	f.net = New(f.kernel, WithDefaultLink(cfg))
	var err error
	if f.src, err = f.net.Register("src", func(Slot, []byte) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dsts; i++ {
		var s Slot
		s, err = f.net.Register(NodeID(fmt.Sprintf("d%d", i)), func(_ Slot, payload []byte) {
			f.got[s] = append(f.got[s], append([]byte(nil), payload...))
			f.bases[&payload[0]] = true
		})
		if err != nil {
			t.Fatal(err)
		}
		f.dsts = append(f.dsts, s)
	}
	return f
}

// TestSharedPayloadFanout fans one datagram out with every delivery
// duplicated, one destination crashed and one link lossy: every
// surviving delivery must see the caller's bytes, all of them through a
// single shared copy, and the copy must be recycled after Run.
func TestSharedPayloadFanout(t *testing.T) {
	const dsts = 8
	f := newFanoutFabric(t, dsts, LinkConfig{Latency: time.Millisecond, Jitter: time.Millisecond, DuplicateRate: 1})
	crashed, lossy := f.dsts[2], f.dsts[5]
	if err := f.net.Crash(f.net.IDOf(crashed)); err != nil {
		t.Fatal(err)
	}
	if err := f.net.SetLink("src", f.net.IDOf(lossy), LinkConfig{Latency: time.Millisecond, LossRate: 1}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("shared fan-out payload")
	want := append([]byte(nil), payload...)
	if err := f.net.SendMultiSlot(f.src, f.dsts, payload); err != nil {
		t.Fatal(err)
	}
	if live := f.net.LivePayloads(); live != 1 {
		t.Fatalf("one fan-out holds %d payload copies, want 1", live)
	}
	// The caller may reuse its buffer at once: the network copied it.
	for i := range payload {
		payload[i] = 'x'
	}
	if _, err := f.kernel.Run(); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.dsts {
		wantN := 2
		if d == crashed || d == lossy {
			wantN = 0
		}
		if len(f.got[d]) != wantN {
			t.Fatalf("slot %d got %d deliveries, want %d", d, len(f.got[d]), wantN)
		}
		for _, b := range f.got[d] {
			if !bytes.Equal(b, want) {
				t.Fatalf("slot %d saw %q, want %q", d, b, want)
			}
		}
	}
	if len(f.bases) != 1 {
		t.Fatalf("deliveries saw %d distinct payload buffers, want 1 shared copy", len(f.bases))
	}
	if live := f.net.LivePayloads(); live != 0 {
		t.Fatalf("%d shared payloads still live after Run, want 0", live)
	}
	st := f.net.Stats()
	if st.Sent != dsts || st.Delivered != 2*(dsts-2) || st.Dropped != 2 {
		t.Fatalf("stats = %+v, want sent %d, delivered %d, dropped 2", st, dsts, 2*(dsts-2))
	}
}

// TestCopyOncePerSendCall pins one payload copy per call for every send
// entry point, however many destinations and duplicates the call has,
// and no copy at all when every destination drops the datagram.
func TestCopyOncePerSendCall(t *testing.T) {
	f := newFanoutFabric(t, 4, LinkConfig{Latency: time.Millisecond, DuplicateRate: 1})
	names := make([]NodeID, len(f.dsts))
	for i, d := range f.dsts {
		names[i] = f.net.IDOf(d)
	}
	data := []byte("once")
	sends := map[string]func() error{
		"Send":          func() error { return f.net.Send("src", names[0], data) },
		"SendSlot":      func() error { return f.net.SendSlot(f.src, f.dsts[1], data) },
		"SendMulti":     func() error { return f.net.SendMulti("src", names, data) },
		"SendMultiSlot": func() error { return f.net.SendMultiSlot(f.src, f.dsts, data) },
	}
	for _, name := range []string{"Send", "SendSlot", "SendMulti", "SendMultiSlot"} {
		if err := sends[name](); err != nil {
			t.Fatal(err)
		}
		if live := f.net.LivePayloads(); live != 1 {
			t.Fatalf("%s holds %d payload copies in flight, want 1", name, live)
		}
		if _, err := f.kernel.Run(); err != nil {
			t.Fatal(err)
		}
		if live := f.net.LivePayloads(); live != 0 {
			t.Fatalf("%s left %d payload copies live after Run, want 0", name, live)
		}
	}
	for _, d := range f.dsts {
		if err := f.net.Crash(f.net.IDOf(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.net.SendMultiSlot(f.src, f.dsts, data); err != nil {
		t.Fatal(err)
	}
	if live := f.net.LivePayloads(); live != 0 {
		t.Fatalf("an all-dropped fan-out holds %d payload copies, want 0", live)
	}
}

// TestSendMultiSlotZeroAllocs pins the steady-state fan-out path at
// zero allocations: a 1,024-slot SendMultiSlot, drained, reuses the
// pooled deliveries, the shared payload and the batch scratch.
func TestSendMultiSlotZeroAllocs(t *testing.T) {
	f := newFanoutFabric(t, 0, LinkConfig{Latency: time.Millisecond})
	sink := func(Slot, []byte) {}
	for i := 0; i < 1024; i++ {
		s, err := f.net.Register(NodeID(fmt.Sprintf("n%d", i)), sink)
		if err != nil {
			t.Fatal(err)
		}
		f.dsts = append(f.dsts, s)
	}
	data := make([]byte, 128)
	send := func() {
		if err := f.net.SendMultiSlot(f.src, f.dsts, data); err != nil {
			t.Fatal(err)
		}
		if _, err := f.kernel.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("SendMultiSlot to %d slots allocated %.1f per op, want 0", len(f.dsts), allocs)
	}
}
