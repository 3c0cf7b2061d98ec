package svc_test

import (
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/middleware"
	"repro/internal/network"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/svc"
)

// BenchmarkCalibrate is the fixed arithmetic workload cmd/benchcmp uses
// (-normalize Calibrate) to factor machine speed out of cross-host
// baseline comparisons.
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

// benchProfile is a zero-overhead RPC profile so the benchmarks isolate
// the port machinery, not modelled platform delay.
var benchProfile = middleware.Profile{
	Name:     "bench-svc",
	Patterns: []middleware.Pattern{middleware.PatternRPC, middleware.PatternOneway},
}

// rpcStack assembles a platform over the raw datagram network (the pure
// routing stack, as the delivery benchmarks use).
func rpcStack(tb testing.TB) (*sim.Kernel, *middleware.Platform) {
	tb.Helper()
	kernel := sim.NewKernel(sim.WithSeed(1))
	net := network.New(kernel)
	return kernel, middleware.New(kernel, protocol.NewUnreliableDatagram(net), benchProfile, "broker")
}

type benchReq struct{ N uint64 }

type benchResp struct{ N uint64 }

// benchArgs is the record layout of bench requests and replies.
var benchArgs = codec.CompileRecord("n")

func encBenchReq(dst []byte, r benchReq) ([]byte, error) {
	e := benchArgs.Encoder(dst)
	e.Uint("n", r.N)
	return e.Finish()
}

func decBenchReq(v codec.MsgView) (benchReq, error) {
	n, _ := v.Uint("n")
	return benchReq{N: n}, nil
}

func encBenchResp(dst []byte, r benchResp) ([]byte, error) {
	return encBenchReq(dst, benchReq(r))
}

func decBenchResp(v codec.MsgView) (benchResp, error) {
	n, _ := v.Uint("n")
	return benchResp{N: n}, nil
}

// rawEcho is the hand-written server half of the raw-platform baseline:
// read n from the argument view, reply n+1 from a pooled buffer.
func rawEcho(args codec.MsgView, reply middleware.Reply) {
	n, _ := args.Uint("n")
	buf := codec.GetBuffer()
	res, _ := encBenchResp(buf.B[:0], benchResp{N: n + 1})
	reply(res, nil)
	buf.B = res
	buf.Release()
}

// drainB runs the kernel until the event queue is empty.
func drainB(b *testing.B, kernel *sim.Kernel) {
	b.Helper()
	if _, err := kernel.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSvcCall measures one typed port call, round trip fully
// drained: request encoded through the port, carried to the typed
// export, dispatched, replied, decoded, continuation fired. This is the
// number the acceptance gate tracks against BenchmarkRawPlatformInvoke —
// the façade must stay within 10% and add zero allocations per op over
// the raw platform path (the pooled call-state and respond-cell paths
// are what make that hold).
func BenchmarkSvcCall(b *testing.B) {
	kernel, p := rpcStack(b)
	binding := bound(b, p, middleware.PatternRPC)
	e, err := binding.NewExport("server", "node-s")
	if err != nil {
		b.Fatal(err)
	}
	err = svc.HandleOp(e, "echo",
		decBenchReq,
		encBenchResp,
		func(req benchReq, respond func(benchResp, error)) { respond(benchResp{N: req.N + 1}, nil) })
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Register(); err != nil {
		b.Fatal(err)
	}
	port, err := svc.NewPort(binding, "server", "echo", encBenchReq, decBenchResp)
	if err != nil {
		b.Fatal(err)
	}
	done := 0
	cont := func(r benchResp, err error) {
		if err != nil {
			b.Fatal(err)
		}
		done++
	}
	if err := port.Call("node-c", benchReq{N: 1}, cont); err != nil {
		b.Fatal(err)
	}
	drainB(b, kernel)
	done = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := port.Call("node-c", benchReq{N: uint64(i)}, cont); err != nil {
			b.Fatal(err)
		}
		drainB(b, kernel)
	}
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d calls, want %d", done, b.N)
	}
}

// BenchmarkRawPlatformInvoke is the identical round trip on the raw
// platform SPI: a hand-written dispatch object and a direct
// Platform.Invoke — the baseline the svc façade is gated against.
func BenchmarkRawPlatformInvoke(b *testing.B) {
	kernel, p := rpcStack(b)
	obj := middleware.ObjectFunc(func(op string, args codec.MsgView, reply middleware.Reply) {
		if op != "echo" {
			reply(nil, fmt.Errorf("%w: %q", middleware.ErrUnknownOperation, op))
			return
		}
		rawEcho(args, reply)
	})
	if err := p.Register("server", "node-s", obj); err != nil {
		b.Fatal(err)
	}
	done := 0
	cont := func(r codec.MsgView, err error) {
		if err != nil {
			b.Fatal(err)
		}
		done++
	}
	var args []byte
	invoke := func(n uint64) error {
		args, _ = encBenchReq(args[:0], benchReq{N: n})
		return p.Invoke("node-c", "server", "echo", args, cont)
	}
	if err := invoke(1); err != nil {
		b.Fatal(err)
	}
	drainB(b, kernel)
	done = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := invoke(uint64(i)); err != nil {
			b.Fatal(err)
		}
		drainB(b, kernel)
	}
	b.StopTimer()
	if done != b.N {
		b.Fatalf("completed %d calls, want %d", done, b.N)
	}
}

// BenchmarkSvcOnewaySend measures one typed oneway sink send, drained:
// the fire-and-forget half of the port façade.
func BenchmarkSvcOnewaySend(b *testing.B) {
	kernel, p := rpcStack(b)
	binding := bound(b, p, middleware.PatternOneway)
	e, err := binding.NewExport("sink", "node-s")
	if err != nil {
		b.Fatal(err)
	}
	got := 0
	err = svc.HandleOp(e, "put",
		decBenchReq,
		nil,
		func(req benchReq, respond func(struct{}, error)) { got++; respond(struct{}{}, nil) })
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Register(); err != nil {
		b.Fatal(err)
	}
	sink, err := svc.NewOnewaySink(binding, "sink", "put", encBenchReq)
	if err != nil {
		b.Fatal(err)
	}
	if err := sink.Send("node-c", benchReq{N: 1}); err != nil {
		b.Fatal(err)
	}
	drainB(b, kernel)
	got = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sink.Send("node-c", benchReq{N: uint64(i)}); err != nil {
			b.Fatal(err)
		}
		drainB(b, kernel)
	}
	b.StopTimer()
	if got != b.N {
		b.Fatalf("delivered %d sends, want %d", got, b.N)
	}
}

// TestSvcCallAddsNoAllocations is the alloc half of the acceptance gate
// as an exact equality check: the typed port round trip must allocate no
// more than the raw platform round trip it wraps.
func TestSvcCallAddsNoAllocations(t *testing.T) {
	// svc path.
	kernel, p := rpcStack(t)
	binding := bound(t, p, middleware.PatternRPC)
	e, err := binding.NewExport("server", "node-s")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.HandleOp(e, "echo",
		decBenchReq,
		encBenchResp,
		func(req benchReq, respond func(benchResp, error)) { respond(benchResp{N: req.N + 1}, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(); err != nil {
		t.Fatal(err)
	}
	port, err := svc.NewPort(binding, "server", "echo", encBenchReq, decBenchResp)
	if err != nil {
		t.Fatal(err)
	}
	contTyped := func(benchResp, error) {}
	warm := func() {
		if err := port.Call("node-c", benchReq{N: 1}, contTyped); err != nil {
			t.Fatal(err)
		}
		if _, err := kernel.Run(); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	svcAllocs := testing.AllocsPerRun(200, warm)

	// raw path.
	kernel2, p2 := rpcStack(t)
	obj := middleware.ObjectFunc(func(_ string, args codec.MsgView, reply middleware.Reply) {
		rawEcho(args, reply)
	})
	if err := p2.Register("server", "node-s", obj); err != nil {
		t.Fatal(err)
	}
	contRaw := func(codec.MsgView, error) {}
	args, _ := encBenchReq(nil, benchReq{N: 1})
	warmRaw := func() {
		if err := p2.Invoke("node-c", "server", "echo", args, contRaw); err != nil {
			t.Fatal(err)
		}
		if _, err := kernel2.Run(); err != nil {
			t.Fatal(err)
		}
	}
	warmRaw()
	rawAllocs := testing.AllocsPerRun(200, warmRaw)

	if svcAllocs > rawAllocs {
		t.Fatalf("svc port call allocates %.1f/op, raw platform path %.1f/op — the façade must add 0", svcAllocs, rawAllocs)
	}
}
