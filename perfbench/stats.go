package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported as measured: p90 needs at least 100 samples, p99 1000.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it. It returns 0
// for an empty slice and leaves xs unchanged.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), q)]
}

// rank is the 0-based index of the nearest-rank q-quantile among n
// sorted samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// tailSupported reports whether n samples put at least minBeyond samples
// beyond the q-quantile.
func tailSupported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// tailQuantile is the highest of the usual tail percentiles that n
// samples support, and false when even the median has fewer than
// minBeyond samples above it.
func tailQuantile(n int) (float64, bool) {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if tailSupported(n, q) {
			return q, true
		}
	}
	return 0, false
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean is the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// describe renders a distribution with its sample count, naming a tail
// percentile the sample count does not support.
func describe(xs []float64, unit string, qs ...float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", len(xs))
	for _, q := range qs {
		fmt.Fprintf(&b, " p%g=%.4g%s", q*100, percentile(xs, q), unit)
		if q >= 0.9 && !tailSupported(len(xs), q) {
			fmt.Fprintf(&b, "(only %d beyond)", beyond(len(xs), q))
		}
	}
	fmt.Fprintf(&b, " mean=%.4g%s", mean(xs), unit)
	return b.String()
}

// checkParts verifies that the named parts add up to total within tol, a
// share of total. Every required part must be present: a missing part is
// an error even if the others happen to reach the total.
func checkParts(total float64, parts map[string]float64, required []string, tol float64) (float64, error) {
	sum := 0.0
	for _, name := range required {
		v, ok := parts[name]
		if !ok {
			return 0, fmt.Errorf("part %q is missing", name)
		}
		sum += v
	}
	if total <= 0 {
		return sum, fmt.Errorf("total %.4g is not positive", total)
	}
	if d := math.Abs(sum-total) / total; d > tol {
		return sum, fmt.Errorf("parts sum to %.4g, %.1f%% away from %.4g (tolerance %.1f%%)",
			sum, 100*d, total, 100*tol)
	}
	return sum, nil
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
