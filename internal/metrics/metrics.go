// Package metrics provides the counters, histograms, and time series used
// by the experiment harnesses, plus minimal ASCII rendering so the bench
// binaries can print the same artefacts the paper's figures show
// (Fig. 6 is a time series of redundancy; Fig. 7 is a log-scale histogram
// of redundancy degrees).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is a monotonically increasing count. It is not safe for
// concurrent use; hot shared paths should use AtomicCounter.
type Counter struct {
	n int64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.n += delta
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// AtomicCounter is a monotonically increasing count safe for concurrent
// use. The zero value is ready to use; it must not be copied after first
// use.
type AtomicCounter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *AtomicCounter) Inc() { c.n.Add(1) }

// Add adds delta, which must be non-negative.
func (c *AtomicCounter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: AtomicCounter.Add with negative delta")
	}
	c.n.Add(delta)
}

// Value returns the current count.
func (c *AtomicCounter) Value() int64 { return c.n.Load() }

// IntHistogram counts occurrences of integer-valued observations, such as
// the redundancy degree in use at each simulated time step (Fig. 7).
type IntHistogram struct {
	counts map[int]int64
	total  int64
}

// NewIntHistogram returns an empty histogram.
func NewIntHistogram() *IntHistogram {
	return &IntHistogram{counts: make(map[int]int64)}
}

// Observe records one occurrence of v.
func (h *IntHistogram) Observe(v int) { h.ObserveN(v, 1) }

// ObserveN records n occurrences of v.
func (h *IntHistogram) ObserveN(v int, n int64) {
	if n < 0 {
		panic("metrics: ObserveN with negative count")
	}
	h.counts[v] += n
	h.total += n
}

// Total returns the number of observations.
func (h *IntHistogram) Total() int64 { return h.total }

// Count returns the number of observations equal to v.
func (h *IntHistogram) Count(v int) int64 { return h.counts[v] }

// Fraction returns the fraction of observations equal to v, or 0 if the
// histogram is empty.
func (h *IntHistogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// Values returns the observed values in ascending order.
func (h *IntHistogram) Values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// RenderLog renders the histogram with log10-scaled bars, one row per
// observed value, mirroring the logarithmic scale of the paper's Fig. 7.
func (h *IntHistogram) RenderLog(label string, width int) string {
	if width <= 0 {
		width = 40
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (total %d observations, log scale)\n", label, h.total)
	maxLog := 0.0
	for _, v := range h.Values() {
		if l := math.Log10(float64(h.counts[v]) + 1); l > maxLog {
			maxLog = l
		}
	}
	for _, v := range h.Values() {
		n := h.counts[v]
		l := math.Log10(float64(n) + 1)
		bar := 0
		if maxLog > 0 {
			bar = int(l / maxLog * float64(width))
		}
		fmt.Fprintf(&b, "  %4d | %-*s %d (%.5f%%)\n",
			v, width, strings.Repeat("#", bar), n, 100*h.Fraction(v))
	}
	return b.String()
}

// Series is a time series of a length fixed when it is made, kept as
// Render draws it: its samples fall, in order, into buckets of
// ⌈total/cols⌉ consecutive samples (one each when total ≤ cols), and
// the series keeps the maximum of each bucket (the interesting
// excursions in Fig. 6 are the redundancy spikes, which max-pooling
// preserves) plus the minimum, the maximum and the count of the samples
// appended so far. Its size does not grow with its samples.
type Series struct {
	Name string
	// total is the number of samples the series takes and width the
	// number in a bucket.
	total, width int64
	st           SeriesState
}

// SeriesState is what a Series keeps of the samples appended so far:
// their count N, their minimum Min and maximum Max (both 0 while N is
// 0), and the maximum of each bucket begun so far, oldest first.
type SeriesState struct {
	N        int64
	Min, Max float64
	Buckets  []float64
}

// NewSeries returns an empty named series of total samples, drawn in
// at most cols columns; cols must be positive.
func NewSeries(name string, total int64, cols int) *Series {
	width := max(1, ceilDiv(total, int64(cols)))
	s := &Series{Name: name, total: total, width: width}
	s.st.Buckets = make([]float64, 0, ceilDiv(total, width))
	return s
}

// ceilDiv is ⌈a/b⌉ for a ≥ 0 and b > 0, without overflow.
func ceilDiv(a, b int64) int64 { return a/b + min(1, a%b) }

// Append adds the next sample. It panics once the series holds its
// total.
func (s *Series) Append(v float64) {
	st := &s.st
	if st.N == s.total {
		panic("metrics: Append past the series' length")
	}
	if st.N%s.width == 0 {
		st.Buckets = append(st.Buckets, v)
	} else if last := &st.Buckets[len(st.Buckets)-1]; v > *last {
		*last = v
	}
	if st.N == 0 || v < st.Min {
		st.Min = v
	}
	if st.N == 0 || v > st.Max {
		st.Max = v
	}
	st.N++
}

// State returns what the series keeps; its Buckets are a copy.
func (s *Series) State() SeriesState {
	st := s.st
	st.Buckets = append([]float64(nil), st.Buckets...)
	return st
}

// Restore replaces the series' samples with st, as State reported it.
// It refuses a state that appends to this series could not leave, and
// one whose span Max−Min is not finite, so that Render stays within
// its grid.
func (s *Series) Restore(st SeriesState) error {
	if st.N < 0 || st.N > s.total {
		return fmt.Errorf("metrics: series %q: %d samples, outside [0, %d]", s.Name, st.N, s.total)
	}
	if want := ceilDiv(st.N, s.width); int64(len(st.Buckets)) != want {
		return fmt.Errorf("metrics: series %q: %d buckets for %d samples, want %d", s.Name, len(st.Buckets), st.N, want)
	}
	if st.N > 0 && !(st.Max-st.Min <= math.MaxFloat64) {
		return fmt.Errorf("metrics: series %q: span [%v, %v] is not finite", s.Name, st.Min, st.Max)
	}
	for i, v := range st.Buckets {
		if !(st.Min <= v && v <= st.Max) {
			return fmt.Errorf("metrics: series %q: bucket %d maximum %v outside [%v, %v]", s.Name, i, v, st.Min, st.Max)
		}
	}
	if st.N == 0 {
		st.Min, st.Max = 0, 0
	}
	st.Buckets = append(s.st.Buckets[:0], st.Buckets...)
	s.st = st
	return nil
}

// Render draws the series as a chart rows high (rows must be
// positive), one column per bucket begun so far: a complete series
// draws every bucket, and a partial one its buckets as they stand. The
// header states the minimum, the maximum and the count; a constant
// series is drawn on an axis one unit tall.
func (s *Series) Render(rows int) string {
	st := &s.st
	if st.N == 0 {
		return s.Name + " (empty)\n"
	}
	lo, hi := st.Min, st.Max
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", len(st.Buckets)))
	}
	for c, v := range st.Buckets {
		r := int((v - lo) / (hi - lo) * float64(rows-1))
		grid[rows-1-r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (min %.3g, max %.3g, %d samples)\n", s.Name, st.Min, st.Max, st.N)
	for r, row := range grid {
		axis := hi
		if rows > 1 {
			axis = hi - (hi-lo)*float64(r)/float64(rows-1)
		}
		fmt.Fprintf(&b, "%8.3g |%s\n", axis, string(row))
	}
	return b.String()
}
