// Package metrics provides the small measurement toolkit the experiment
// harness uses: streaming latency histograms over virtual time, fairness
// indices, and fixed-width tables for reproducing the paper's figures as
// printed artifacts.
//
// Histogram is fully online: it never stores more than a bounded number
// of raw samples regardless of how many are added, so sweep memory stays
// flat as client populations grow into the millions. Aggregates that the
// sweep CSVs depend on (Count, Mean, Min, Max, and quantiles up to
// sketchK samples) are exact; beyond sketchK samples quantiles degrade
// gracefully with a documented deterministic rank-error bound.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// sketchK is the per-level capacity of the quantile sketch. While a
// histogram holds at most sketchK samples the sketch is just a sorted
// array and every quantile is exact — byte-identical to sorting all
// samples and taking the nearest rank. Past sketchK samples, levels
// compact deterministically and the worst-case quantile rank error is
// bounded by errBound.
const sketchK = 4096

// errBound returns the worst-case rank error of Quantile for a
// histogram holding n samples: zero while n <= sketchK, and at most
// (ceil(log2(n/k))+1) * n/k afterwards (k = sketchK). Each compaction
// of level i (items of weight 2^i) perturbs any rank by at most 2^i,
// and level i compacts at most n/(k*2^i) times, so the per-level
// contribution telescopes to n/k across ceil(log2(n/k))+1 live levels.
// At n = 2^20 that is 9*256 = 2304 ranks, under 0.25% of the
// population.
func errBound(n int64) int64 {
	if n <= sketchK {
		return 0
	}
	levels := int64(1)
	for m := n; m > sketchK; m >>= 1 {
		levels++
	}
	return levels * (n / sketchK)
}

// Histogram accumulates duration samples online and answers summary
// queries. The zero value is ready to use.
//
// Count, Mean, Min, and Max are always exact. Quantile (and P50, P95,
// P99) is exact while at most sketchK (4096) samples have been added;
// afterwards it answers from a deterministic multi-level compaction
// sketch whose worst-case rank error is documented on errBound. Memory
// is O(sketchK * log(n/sketchK)) regardless of n, so per-client and
// aggregate histograms stay flat as populations grow.
//
// Determinism: compaction keeps alternating elements of each sorted
// level with a per-level offset that toggles on every compaction — no
// randomness anywhere — so two runs that Add the same samples in the
// same order answer identical quantiles.
type Histogram struct {
	count int64
	sum   int64 // exact running sum in nanoseconds
	min   int64
	max   int64

	// Welford online moments: mean and sum of squared deviations (M2),
	// accumulated in arrival order (deterministic for deterministic
	// workloads).
	mean float64
	m2   float64

	// levels[i] holds sketch items of weight 2^i. levels[0] is the
	// insertion buffer; total stored weight always equals count.
	levels    [][]int64
	compacted bool   // true once any compaction happened (quantiles now approximate)
	sorted0   bool   // levels[0] known-sorted (exact mode fast path)
	coins     uint64 // per-level compaction offset toggles (bit i = level i)
}

// Add records one sample.
func (h *Histogram) Add(d time.Duration) {
	v := int64(d)
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	delta := float64(v) - h.mean
	h.mean += delta / float64(h.count)
	h.m2 += delta * (float64(v) - h.mean)
	if len(h.levels) == 0 {
		h.levels = append(h.levels, make([]int64, 0, 16))
	}
	h.levels[0] = append(h.levels[0], v)
	h.sorted0 = false
	if len(h.levels[0]) > sketchK {
		h.compactLevel(0)
	}
}

// compactLevel sorts level i and promotes alternating elements (weight
// doubled) straight into level i+1, cascading if that level overflows.
// An odd trailing element stays behind so total weight is preserved
// exactly. Levels keep their backing arrays across compactions, so once
// every live level has grown to capacity Add allocates nothing.
func (h *Histogram) compactLevel(i int) {
	lv := h.levels[i]
	sortInt64s(lv)
	pairs := len(lv) &^ 1
	off := int((h.coins >> uint(i)) & 1)
	h.coins ^= 1 << uint(i)
	if i+1 >= len(h.levels) {
		h.levels = append(h.levels, nil)
	}
	next := h.levels[i+1]
	for j := off; j < pairs; j += 2 {
		next = append(next, lv[j])
	}
	h.levels[i+1] = next
	if pairs < len(lv) {
		lv[0] = lv[pairs]
		h.levels[i] = lv[:1]
	} else {
		h.levels[i] = lv[:0]
	}
	h.compacted = true
	if len(next) > sketchK {
		h.compactLevel(i + 1)
	}
}

// retained reports how many raw values the sketch currently stores —
// bounded by sketchK per level regardless of Count.
func (h *Histogram) retained() int {
	n := 0
	for _, lv := range h.levels {
		n += len(lv)
	}
	return n
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return int(h.count) }

// Mean returns the arithmetic mean, or zero when empty. It is computed
// from an exact integer sum, not the sketch, so it is exact at any
// population size.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Sum returns the exact sum of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum) }

// Variance returns the population variance in ns², computed online via
// Welford's algorithm, or zero when fewer than two samples were added.
func (h *Histogram) Variance() float64 {
	if h.count < 2 {
		return 0
	}
	return h.m2 / float64(h.count)
}

// StdDev returns the population standard deviation, derived from the
// Welford M2 accumulator, or zero when fewer than two samples were
// added.
func (h *Histogram) StdDev() time.Duration {
	return time.Duration(math.Sqrt(h.Variance()))
}

// ensureSorted0 sorts the insertion buffer once per mutation epoch
// (exact-mode fast path, used only before any compaction).
func (h *Histogram) ensureSorted0() {
	if !h.sorted0 {
		sortInt64s(h.levels[0])
		h.sorted0 = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest rank, or
// zero when empty. Exact while Count <= sketchK; afterwards answered
// from the compaction sketch with worst-case rank error errBound(n).
// The extreme ranks are always exact: q=0 returns Min and q=1 returns
// Max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(h.count-1) + 0.5)
	if !h.compacted {
		h.ensureSorted0()
		return time.Duration(h.levels[0][target])
	}
	if target <= 0 {
		return time.Duration(h.min)
	}
	if target >= h.count-1 {
		return time.Duration(h.max)
	}
	return time.Duration(h.rankSelect(target))
}

// rankSelect answers the nearest-rank query over the weighted sketch:
// each item at level i covers 2^i consecutive ranks, total weight is
// exactly count, and the item whose rank interval contains target is
// returned.
func (h *Histogram) rankSelect(target int64) int64 {
	type vw struct {
		v int64
		w int64
	}
	items := make([]vw, 0, h.retained())
	for i, lv := range h.levels {
		w := int64(1) << uint(i)
		for _, v := range lv {
			items = append(items, vw{v, w})
		}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].v < items[b].v })
	var acc int64
	for _, it := range items {
		if target < acc+it.w {
			return it.v
		}
		acc += it.w
	}
	return h.max
}

// P50 is the median (see Quantile for the exactness regime and the
// sketch error bound).
func (h *Histogram) P50() time.Duration { return h.Quantile(0.50) }

// P95 is the 95th percentile (see Quantile for the exactness regime
// and the sketch error bound).
func (h *Histogram) P95() time.Duration { return h.Quantile(0.95) }

// P99 is the 99th percentile (see Quantile for the exactness regime
// and the sketch error bound).
func (h *Histogram) P99() time.Duration { return h.Quantile(0.99) }

// Max returns the largest sample (exact at any size), or zero when
// empty.
func (h *Histogram) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.max)
}

// Min returns the smallest sample (exact at any size), or zero when
// empty.
func (h *Histogram) Min() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.min)
}

// Summary renders "mean=… p50=… p95=… max=… (n=…)".
func (h *Histogram) Summary() string {
	return fmt.Sprintf("mean=%v p50=%v p95=%v max=%v (n=%d)",
		h.Mean().Round(time.Microsecond),
		h.P50().Round(time.Microsecond),
		h.P95().Round(time.Microsecond),
		h.Max().Round(time.Microsecond),
		h.Count())
}

// sortInt64s sorts an int64 slice ascending without allocating (the
// compaction path runs inside Add).
func sortInt64s(xs []int64) { slices.Sort(xs) }

// Table accumulates rows and renders them with aligned columns — the
// printed form of every reproduced figure.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title line and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends one row; missing cells render empty, extra cells are
// kept and widen the table.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table. Column widths are measured in runes, not
// bytes, so multi-byte UTF-8 cells (µs durations, accented names)
// align correctly.
func (t *Table) String() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}
	var sb strings.Builder
	if t.title != "" {
		sb.WriteString(t.title)
		sb.WriteByte('\n')
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			fmt.Fprintf(&sb, "%-*s", widths[i]+2, cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

// Jain computes Jain's fairness index over non-negative allocations:
// (Σx)² / (n·Σx²), which is 1.0 for perfectly equal shares and approaches
// 1/n under maximal skew. Empty or all-zero input yields 0.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
