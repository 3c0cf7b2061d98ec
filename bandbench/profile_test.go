package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime"
	"runtime/pprof"
	"testing"
)

// pbWriter encodes the few protobuf shapes the profile fixture needs.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(field int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(field)<<3|wireVarint)
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *pbWriter) bytes(field int, p []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(field)<<3|wireBytes)
	w.b = binary.AppendUvarint(w.b, uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *pbWriter) packed(field int, vs []uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	w.bytes(field, p)
}

// fixtureFuncs are the fixture's functions; function i+1 is named
// fixtureFuncs[i] and sits alone at location i+1.
var fixtureFuncs = []string{
	"runtime.mallocgc",                      // 1
	"repro/internal/codec.decodeValue",      // 2
	"repro/internal/sim.(*Kernel).Run",      // 3
	"runtime.gcBgMarkWorker",                // 4
	"sync.(*Mutex).Lock",                    // 5
	"repro/internal/floorcontrol.encAck",    // 6
	"main.fwdPart.Acquire",                  // 7
	"runtime.futex",                         // 8
	"repro/internal/sim/shard.(*Group).Run", // 9
	"repro/internal/svc.(*Port[go.shape.struct { Sub string }]).Call", // 10
	"runtime.gcDrainN", // 11
}

// fixtureSample is one fixture sample: its stack as function ids, leaf
// first, and its cpu value.
type fixtureSample struct {
	stack []uint64
	cpu   int64
}

// inlinedLoc is a location whose first line is codec inlined into
// floorcontrol: the innermost frame decides.
const inlinedLoc = 100

var fixtureSamples = []fixtureSample{
	{[]uint64{1, 2, 3}, 30},      // malloc under codec: the allocator
	{[]uint64{2, 3}, 20},         // codec
	{[]uint64{4}, 10},            // GC worker
	{[]uint64{11, 1, 2, 3}, 5},   // GC assist inside malloc: GC
	{[]uint64{5, 3}, 5},          // mutex self time: lock
	{[]uint64{3, 5}, 4},          // sim calling into sync: sim
	{[]uint64{8}, 6},             // scheduler: other
	{[]uint64{9}, 5},             // sim/shard counts as sim
	{[]uint64{inlinedLoc, 3}, 5}, // codec inlined into floorcontrol
	{[]uint64{10, 6}, 5},         // generic svc method
	{[]uint64{7, 6}, 5},          // benchmark code called from floorcontrol
}

var fixtureWant = map[string]float64{
	bucketMalloc: 30,
	"codec":      25,
	bucketGC:     15,
	bucketLock:   5,
	"sim":        9,
	bucketOther:  6,
	"svc":        5,
	bucketBench:  5,
}

// fixtureProfile encodes the fixture as runtime/pprof would: sample
// types [samples/count, cpu/nanoseconds], gzipped.
func fixtureProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	intern := func(s string) uint64 {
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var w pbWriter
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt pbWriter
		vt.varint(1, map[string]uint64{"samples": 1, "cpu": 3}[st[0]])
		vt.varint(2, map[string]uint64{"count": 2, "nanoseconds": 4}[st[1]])
		w.bytes(1, vt.b)
	}
	for i, s := range fixtureSamples {
		var sp pbWriter
		if i%2 == 0 {
			sp.packed(1, s.stack)
			sp.packed(2, []uint64{1, uint64(s.cpu)})
		} else {
			for _, id := range s.stack {
				sp.varint(1, id)
			}
			sp.varint(2, 1)
			sp.varint(2, uint64(s.cpu))
		}
		w.bytes(2, sp.b)
	}
	line := func(fn uint64) []byte {
		var l pbWriter
		l.varint(1, fn)
		l.varint(2, 10)
		return l.b
	}
	for i := range fixtureFuncs {
		var loc pbWriter
		loc.varint(1, uint64(i+1))
		loc.varint(3, 0x1000+uint64(i))
		loc.bytes(4, line(uint64(i+1)))
		w.bytes(4, loc.b)
	}
	var loc pbWriter
	loc.varint(1, inlinedLoc)
	loc.bytes(4, line(2)) // codec, inlined into
	loc.bytes(4, line(6)) // floorcontrol
	w.bytes(4, loc.b)
	for i, name := range fixtureFuncs {
		var fn pbWriter
		fn.varint(1, uint64(i+1))
		fn.varint(2, intern(name))
		w.bytes(5, fn.b)
	}
	for _, s := range strs {
		w.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(w.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestBucketFixtureProfile(t *testing.T) {
	p, err := parseProfile(fixtureProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	if err := p.addWeights("cpu", true, got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(fixtureWant) {
		t.Errorf("buckets = %v, want %v", got, fixtureWant)
	}
	for b, w := range fixtureWant {
		if got[b] != w {
			t.Errorf("bucket %s = %v, want %v", b, got[b], w)
		}
	}
	shares := fractions(got)
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 || shares["codec"] != 0.25 {
		t.Errorf("shares = %v (sum %v), want codec 0.25 of a total of 1", shares, sum)
	}
	if err := p.addWeights("alloc_space", false, got); err == nil {
		t.Error("a missing sample type must be an error")
	}
}

// An allocation profile charges no sample to the runtime buckets: its
// stacks start at the allocating code.
func TestBucketAllocStack(t *testing.T) {
	stack := []string{"runtime.makeslice", "repro/internal/codec.decodeValue"}
	if got := bucketOf(stack, false); got != "codec" {
		t.Errorf("alloc bucket = %q, want codec", got)
	}
	if got := bucketOf(stack, true); got != bucketMalloc {
		t.Errorf("cpu bucket = %q, want %s", got, bucketMalloc)
	}
}

// allocSink keeps TestParseLiveAllocProfile's allocation reachable.
var allocSink []byte

// The parser reads what runtime/pprof writes.
func TestParseLiveAllocProfile(t *testing.T) {
	allocSink = make([]byte, 4<<20) // larger than the sampling rate: always recorded
	runtime.GC()                    // the allocation profile is published at GC
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	w := map[string]float64{}
	if err := p.addWeights("alloc_space", false, w); err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 || len(w) == 0 {
		t.Fatalf("parsed %d samples into buckets %v", len(p.samples), w)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{{0x0a, 0x05, 0x01}, {0xff}, {0x0b}} {
		if _, err := parseProfile(b); err == nil {
			t.Errorf("parseProfile(%x) succeeded", b)
		}
	}
}
