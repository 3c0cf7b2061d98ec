package metrics

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// exactQuantile is the pre-streaming reference: sort everything, take
// the nearest rank.
func exactQuantile(sorted []int64, q float64) int64 {
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

// TestSketchExactBelowK pins that the sketch is byte-identical to the
// sorted-sample nearest-rank implementation while n <= sketchK. The
// sweep CSVs depend on this: default/large band histograms never
// exceed ~1k samples, so the metrics rework must not move a single
// quantile there.
func TestSketchExactBelowK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	ref := make([]int64, 0, sketchK)
	for i := 0; i < sketchK; i++ {
		v := rng.Int63n(1_000_000_000)
		h.Add(time.Duration(v))
		ref = append(ref, v)
	}
	sorted := append([]int64(nil), ref...)
	sortInt64s(sorted)
	for q := 0.0; q <= 1.0; q += 0.001 {
		got := int64(h.Quantile(q))
		want := exactQuantile(sorted, q)
		if got != want {
			t.Fatalf("Quantile(%v) = %d, want exact %d (n=%d)", q, got, want, h.Count())
		}
	}
	if h.compacted {
		t.Fatal("histogram compacted at n == sketchK; exactness contract broken")
	}
}

// rankError returns the distance (in ranks) from target to the rank
// interval that value v occupies in the exact sorted sample.
func rankError(sorted []int64, v int64, target int) int {
	lo := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= v })
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
	if lo >= hi {
		// v not present in the exact sample — cannot happen: the sketch
		// only stores values that were added.
		return len(sorted)
	}
	if target < lo {
		return lo - target
	}
	if target > hi-1 {
		return target - (hi - 1)
	}
	return 0
}

// TestSketchErrorBound cross-checks sketch quantiles against exact
// sorted-sample quantiles on randomized seeded inputs well past the
// compaction threshold, asserting the documented worst-case rank error
// bound from errBound.
func TestSketchErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n sketch cross-check")
	}
	cases := []struct {
		name string
		n    int
		gen  func(*rand.Rand) int64
	}{
		{"uniform", 200_000, func(r *rand.Rand) int64 { return r.Int63n(1_000_000_000) }},
		{"exponential", 200_000, func(r *rand.Rand) int64 { return int64(r.ExpFloat64() * 1e6) }},
		{"clustered", 1 << 20, func(r *rand.Rand) int64 { return r.Int63n(64) * 1_000_000 }},
	}
	quantiles := []float64{0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var h Histogram
			ref := make([]int64, 0, tc.n)
			for i := 0; i < tc.n; i++ {
				v := tc.gen(rng)
				h.Add(time.Duration(v))
				ref = append(ref, v)
			}
			sortInt64s(ref)
			bound := int(errBound(int64(tc.n)))
			if bound <= 0 {
				t.Fatalf("%s: errBound(%d) = %d, want positive past sketchK", tc.name, tc.n, bound)
			}
			for _, q := range quantiles {
				got := int64(h.Quantile(q))
				target := int(q*float64(tc.n-1) + 0.5)
				if e := rankError(ref, got, target); e > bound {
					t.Errorf("%s seed=%d: Quantile(%v) rank error %d exceeds documented bound %d",
						tc.name, seed, q, e, bound)
				}
			}
			if h.Min() != time.Duration(ref[0]) || h.Max() != time.Duration(ref[len(ref)-1]) {
				t.Errorf("%s seed=%d: Min/Max drifted: %v/%v", tc.name, seed, h.Min(), h.Max())
			}
			if h.Mean() != time.Duration(sum(ref)/int64(tc.n)) {
				t.Errorf("%s seed=%d: Mean not exact", tc.name, seed)
			}
		}
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// TestSketchDeterministic pins that two histograms fed the same
// sequence answer identical quantiles — the compaction schedule has no
// hidden nondeterminism.
func TestSketchDeterministic(t *testing.T) {
	build := func() *Histogram {
		rng := rand.New(rand.NewSource(42))
		var h Histogram
		for i := 0; i < 50_000; i++ {
			h.Add(time.Duration(rng.Int63n(1e9)))
		}
		return &h
	}
	a, b := build(), build()
	for q := 0.0; q <= 1.0; q += 0.01 {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("Quantile(%v) differs across identical runs", q)
		}
	}
}

// TestHistogramMemoryFlat pins the O(1)-per-client claim: a histogram
// fed 2^20 samples retains a bounded number of raw values.
func TestHistogramMemoryFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Histogram
	n := 1 << 20
	for i := 0; i < n; i++ {
		h.Add(time.Duration(rng.Int63n(1e9)))
	}
	if h.Count() != n {
		t.Fatalf("Count = %d", h.Count())
	}
	if got, limit := h.retained(), 12*sketchK; got > limit {
		t.Fatalf("retained %d raw values after %d adds, want <= %d", got, n, limit)
	}
}

func TestStdDev(t *testing.T) {
	var h Histogram
	if h.StdDev() != 0 || h.Variance() != 0 {
		t.Fatal("empty histogram should answer zero moments")
	}
	h.Add(2)
	if h.StdDev() != 0 {
		t.Fatal("single sample has zero stddev")
	}
	h.Add(4)
	h.Add(4)
	h.Add(4)
	h.Add(5)
	h.Add(5)
	h.Add(7)
	h.Add(9)
	// Population variance of {2,4,4,4,5,5,7,9} is 4.
	if v := h.Variance(); v < 3.999 || v > 4.001 {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if sd := h.StdDev(); sd != 2 {
		t.Fatalf("StdDev = %v, want 2ns", sd)
	}
	if h.Sum() != 40 {
		t.Fatalf("Sum = %v, want 40", h.Sum())
	}
}

// TestTableRuneWidths pins the multi-byte column fix: cells containing
// multi-byte runes (µ, é) must not skew column alignment, which the old
// byte-length measurement did.
func TestTableRuneWidths(t *testing.T) {
	tb := NewTable("", "col", "next")
	tb.AddRow("µµµµ", "x")
	tb.AddRow("abcd", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	// Layout without a title: header, separator, then the two data rows.
	// Both data rows have equal-rune-width first cells, so the second
	// column must start at the same rune offset in both lines.
	offsetOf := func(line, cell string) int {
		i := strings.Index(line, cell)
		if i < 0 {
			t.Fatalf("line %q missing cell %q", line, cell)
		}
		return utf8.RuneCountInString(line[:i])
	}
	if a, b := offsetOf(lines[2], "x"), offsetOf(lines[3], "y"); a != b {
		t.Fatalf("second column misaligned: rune offsets %d vs %d\n%s", a, b, out)
	}
	// The separator spans the rune width of the table, which equals the
	// rune width of each padded data row.
	if want := utf8.RuneCountInString(lines[2]); len(lines[1]) != want {
		t.Fatalf("separator width %d != row rune width %d:\n%s", len(lines[1]), want, out)
	}
}

// refSketch is the sketch's compaction schedule written the plain way —
// every compaction collects its survivors in a fresh slice before
// promoting them — kept as the oracle that the in-place promotion
// leaves every level, and so every quantile, bit-identical.
type refSketch struct {
	levels [][]int64
	coins  uint64
}

func (r *refSketch) add(v int64) {
	if len(r.levels) == 0 {
		r.levels = append(r.levels, nil)
	}
	r.levels[0] = append(r.levels[0], v)
	if len(r.levels[0]) > sketchK {
		r.compact(0)
	}
}

func (r *refSketch) compact(i int) {
	lv := append([]int64(nil), r.levels[i]...)
	sortInt64s(lv)
	var keep []int64
	if len(lv)%2 == 1 {
		keep = []int64{lv[len(lv)-1]}
		lv = lv[:len(lv)-1]
	}
	off := int((r.coins >> uint(i)) & 1)
	r.coins ^= 1 << uint(i)
	var promoted []int64
	for j := off; j < len(lv); j += 2 {
		promoted = append(promoted, lv[j])
	}
	r.levels[i] = keep
	if i+1 >= len(r.levels) {
		r.levels = append(r.levels, nil)
	}
	r.levels[i+1] = append(r.levels[i+1], promoted...)
	if len(r.levels[i+1]) > sketchK {
		r.compact(i + 1)
	}
}

// TestCompactionMatchesReference feeds the sketch and the reference
// schedule the same samples and requires identical levels throughout.
func TestCompactionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h Histogram
	var ref refSketch
	for i := 0; i < 300_000; i++ {
		v := rng.Int63n(1e9)
		h.Add(time.Duration(v))
		ref.add(v)
		if i%9973 != 0 {
			continue
		}
		if len(h.levels) != len(ref.levels) {
			t.Fatalf("after %d adds: %d levels, reference %d", i+1, len(h.levels), len(ref.levels))
		}
		for l := range h.levels {
			got := append([]int64(nil), h.levels[l]...)
			want := append([]int64(nil), ref.levels[l]...)
			if l == 0 {
				// Level 0 is an unsorted insertion buffer until queried.
				sortInt64s(got)
				sortInt64s(want)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("after %d adds: level %d diverges from the reference schedule", i+1, l)
			}
		}
	}
}

// TestHistogramAddZeroAllocs pins the steady state of Add at zero
// allocations: once the live levels have grown, compactions (at least
// two per measured run) reuse their backing arrays.
func TestHistogramAddZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h Histogram
	for i := 0; i < 1<<20; i++ {
		h.Add(time.Duration(rng.Int63n(1e9)))
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 2*sketchK+2; i++ {
			h.Add(time.Duration(rng.Int63n(1e9)))
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add allocated %.1f per %d samples, want 0", allocs, 2*sketchK+2)
	}
}
