package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Buckets that are not a repro/internal package.
const (
	bucketGC     = "runtime.gc"     // GC mark, sweep and assist work
	bucketMalloc = "runtime.malloc" // the allocator itself
	bucketLock   = "runtime.lock"   // mutex and atomic self time
	bucketBench  = "bench"          // the benchmark's own frames
	bucketOther  = "other"          // everything else: scheduler, syscalls, stdlib
)

// internalPrefix marks the frames that name a layer.
const internalPrefix = "repro/internal/"

// gcFrames and mallocFrames are runtime function-name prefixes; a sample
// is charged to GC or malloc when one of them sits between its leaf and
// its innermost repro frame. The scan runs leaf first, so a GC assist
// inside mallocgc counts as GC.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
		"runtime.scanstack", "runtime.scanframeworker", "runtime.greyobject",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.(*mspan).sweep", "runtime.(*gcWork)", "runtime.wbBuf",
		"runtime.bulkBarrier", "runtime.GC",
	}
	mallocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.growslice", "runtime.makemap",
		"runtime.rawstring", "runtime.rawbyteslice", "runtime.(*mcache)",
		"runtime.(*mcentral)", "runtime.(*mheap)", "runtime.nextFreeFast",
	}
	lockFrames = []string{
		"sync.", "sync/atomic.", "internal/sync.", "internal/runtime/atomic.",
		"runtime/internal/atomic.", "runtime.lock", "runtime.unlock",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketOf charges one stack, leaf first, to a bucket. The innermost repro
// frame names the bucket: the first path element after repro/internal/
// (so sim/shard counts as sim), or bench for the benchmark's own code
// (package main, and any repro package outside internal).
// Runtime frames between the leaf and that frame can claim the sample
// first: GC or allocator work wherever it sits, and mutex or atomic code
// when it is the leaf itself. Samples with no repro frame and no such
// claim are other.
func bucketOf(stack []string, cpu bool) string {
	for i, fn := range stack {
		if strings.HasPrefix(fn, "repro/") {
			if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
				if end := strings.IndexAny(rest, "./"); end > 0 {
					return rest[:end]
				}
			}
			return bucketBench
		}
		if strings.HasPrefix(fn, "main.") {
			return bucketBench
		}
		if !cpu {
			continue
		}
		switch {
		case hasAnyPrefix(fn, gcFrames):
			return bucketGC
		case hasAnyPrefix(fn, mallocFrames):
			return bucketMalloc
		case i == 0 && hasAnyPrefix(fn, lockFrames):
			return bucketLock
		}
	}
	return bucketOther
}

// profile is the part of a pprof protobuf profile the bucketing needs.
type profile struct {
	sampleTypes []string
	samples     []sample
	// stacks maps a location id to its function names, innermost inlined
	// frame first.
	stacks map[uint64][]string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// addWeights buckets the profile's samples of the named type, adding
// each bucket's summed value into into. Weights from several profiles
// accumulate, and fractions turns them into shares of all samples.
func (p *profile) addWeights(sampleType string, cpu bool, into map[string]float64) error {
	idx := -1
	for i, t := range p.sampleTypes {
		if t == sampleType {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("profile has no %q samples (types %v)", sampleType, p.sampleTypes)
	}
	var stack []string
	for _, s := range p.samples {
		if idx >= len(s.values) {
			continue
		}
		stack = stack[:0]
		for _, id := range s.locs {
			stack = append(stack, p.stacks[id]...)
		}
		into[bucketOf(stack, cpu)] += float64(s.values[idx])
	}
	return nil
}

// fractions divides bucket weights by their total.
func fractions(weights map[string]float64) map[string]float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make(map[string]float64, len(weights))
	for k, w := range weights {
		if total > 0 {
			out[k] = w / total
		}
	}
	return out
}

// parseProfile decodes a gzipped pprof protobuf, as runtime/pprof writes
// it.
func parseProfile(data []byte) (*profile, error) {
	if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	var (
		strs      []string
		typeIdx   []int64
		locLines  = map[uint64][]uint64{} // location → function ids
		funcNames = map[uint64]int64{}    // function → name string index
		p         = &profile{}
	)
	err := fields(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1}
			return fields(b, func(n, w int, v uint64, _ []byte) error {
				if n == 1 && w == wireVarint {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample: {location_id = 1, value = 2}
			var s sample
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: {id = 1, line = 4 {function_id = 1}}
			var id uint64
			var fns []uint64
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch {
				case n == 1 && w == wireVarint:
					id = v
				case n == 4 && w == wireBytes:
					return fields(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 && w == wireVarint {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function: {id = 1, name = 2}
			var id uint64
			var name int64
			err := fields(b, func(n, w int, v uint64, _ []byte) error {
				if w == wireVarint {
					switch n {
					case 1:
						id = v
					case 2:
						name = int64(v)
					}
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			if wire != wireBytes {
				return errors.New("profile: string_table is not length-delimited")
			}
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	p.stacks = make(map[uint64][]string, len(locLines))
	for loc, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.stacks[loc] = names
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// fields walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited payload.
func fields(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case wireVarint:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case wireI64:
			if len(b) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			b = b[8:]
		case wireI32:
			if len(b) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field in either its packed or its
// unpacked encoding.
func varints(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == wireVarint {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
