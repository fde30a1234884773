package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Counter = %d, want 5", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestHistogramBasics(t *testing.T) {
	h := NewIntHistogram()
	h.Observe(3)
	h.Observe(3)
	h.ObserveN(5, 8)
	if h.Total() != 10 {
		t.Fatalf("Total = %d, want 10", h.Total())
	}
	if h.Count(3) != 2 || h.Count(5) != 8 || h.Count(7) != 0 {
		t.Fatalf("counts wrong: 3=%d 5=%d 7=%d", h.Count(3), h.Count(5), h.Count(7))
	}
	if got := h.Fraction(5); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("Fraction(5) = %v, want 0.8", got)
	}
	vs := h.Values()
	if len(vs) != 2 || vs[0] != 3 || vs[1] != 5 {
		t.Fatalf("Values() = %v", vs)
	}
}

func TestHistogramEmptyFraction(t *testing.T) {
	h := NewIntHistogram()
	if h.Fraction(1) != 0 {
		t.Fatal("empty histogram Fraction != 0")
	}
}

func TestHistogramNegativeNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ObserveN(-1) did not panic")
		}
	}()
	NewIntHistogram().ObserveN(1, -1)
}

func TestHistogramRenderLog(t *testing.T) {
	h := NewIntHistogram()
	h.ObserveN(3, 1000000)
	h.ObserveN(5, 100)
	h.ObserveN(7, 10)
	out := h.RenderLog("redundancy", 40)
	if !strings.Contains(out, "redundancy") {
		t.Fatal("render missing label")
	}
	for _, want := range []string{"3 |", "5 |", "7 |", "1000000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Log scale: the bar for 1e6 should not dwarf the bar for 10 by 1e5x.
	lines := strings.Split(out, "\n")
	var bar3, bar7 int
	for _, l := range lines {
		hashes := strings.Count(l, "#")
		if strings.Contains(l, "   3 |") {
			bar3 = hashes
		}
		if strings.Contains(l, "   7 |") {
			bar7 = hashes
		}
	}
	if bar3 == 0 || bar7 == 0 {
		t.Fatalf("bars missing (bar3=%d bar7=%d):\n%s", bar3, bar7, out)
	}
	if bar3 > bar7*10 {
		t.Fatalf("bars not log scaled: bar3=%d bar7=%d", bar3, bar7)
	}
}

// appended is a series of len(vals) samples in cols columns holding
// vals.
func appended(name string, vals []float64, cols int) *Series {
	s := NewSeries(name, int64(len(vals)), cols)
	for _, v := range vals {
		s.Append(v)
	}
	return s
}

func TestSeriesMinMax(t *testing.T) {
	st := appended("x", []float64{3, 9, 1, 7}, 60).State()
	if st.Min != 1 || st.Max != 9 {
		t.Fatalf("Min/Max = %v/%v, want 1/9", st.Min, st.Max)
	}
	if st.N != 4 {
		t.Fatalf("N = %d", st.N)
	}
}

func TestEmptySeries(t *testing.T) {
	s := NewSeries("e", 0, 10)
	if st := s.State(); st.Min != 0 || st.Max != 0 {
		t.Fatal("empty series Min/Max not 0")
	}
	if out := s.Render(5); !strings.Contains(out, "empty") {
		t.Fatalf("empty render = %q", out)
	}
}

func TestDownsamplePreservesSpikes(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = 3
	}
	vals[500] = 9 // a single spike
	s := appended("spiky", vals, 20)
	bs := s.State().Buckets
	if len(bs) > 20 {
		t.Fatalf("20 columns kept %d buckets", len(bs))
	}
	if bs[500/50] != 9 {
		t.Fatalf("bucket %d = %v: the spike was lost (must max-pool)", 500/50, bs[500/50])
	}
}

func TestDownsampleNoOpWhenSmall(t *testing.T) {
	s := appended("small", []float64{1, 2}, 10)
	if bs := s.State().Buckets; len(bs) != 2 || bs[0] != 1 || bs[1] != 2 {
		t.Fatalf("a 2-sample series in 10 columns keeps buckets %v, want [1 2]", bs)
	}
}

func TestSeriesRender(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i % 10)
	}
	out := appended("r", vals, 40).Render(5)
	if !strings.Contains(out, "r (min 0") {
		t.Fatalf("render header wrong:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatal("render has no data points")
	}
}

// TestConstantSeriesHeader pins the header of a series that never
// moves: it states the series' own maximum, while the axis is widened
// to one unit so the samples sit on its bottom row.
func TestConstantSeriesHeader(t *testing.T) {
	out := appended("redundancy", []float64{3, 3, 3, 3}, 72).Render(3)
	want := "redundancy (min 3, max 3, 4 samples)\n" +
		"       4 |    \n" +
		"     3.5 |    \n" +
		"       3 |****\n"
	if out != want {
		t.Fatalf("constant series:\n%s\nwant:\n%s", out, want)
	}
}

func TestStateReturnsCopy(t *testing.T) {
	s := appended("c", []float64{1}, 10)
	s.State().Buckets[0] = 99
	if s.State().Buckets[0] != 1 {
		t.Fatal("State() exposed the series' buckets")
	}
}

func TestAppendPastLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Append past the length did not panic")
		}
	}()
	appended("full", []float64{1, 2}, 10).Append(3)
}

// TestPartialSeriesDrawsBucketsAsTheyStand appends part of a series'
// samples: its buckets are the full series' buckets of ⌈total/cols⌉
// samples, the last one cut where the samples stop.
func TestPartialSeriesDrawsBucketsAsTheyStand(t *testing.T) {
	const total, cols = 1000, 72 // 14 samples a bucket
	s := NewSeries("p", total, cols)
	var vals []float64
	for i := 0; i < 500; i++ {
		v := float64((i * 7919) % 13)
		vals = append(vals, v)
		s.Append(v)
		want := chunkMax(vals, 14)
		if got := s.State().Buckets; !slices.Equal(got, want) {
			t.Fatalf("after %d samples buckets %v, want %v", i+1, got, want)
		}
	}
	row := strings.Split(s.Render(4), "\n")[1]
	if _, chart, _ := strings.Cut(row, "|"); len(chart) != 36 {
		t.Fatalf("a 500-sample prefix draws %d columns, want 36: %q", len(chart), row)
	}
}

// chunkMax is the maximum of each run of width values.
func chunkMax(vals []float64, width int) []float64 {
	var out []float64
	for i := 0; i < len(vals); i += width {
		out = append(out, slices.Max(vals[i:min(i+width, len(vals))]))
	}
	return out
}

// TestSeriesRestore restores a series from its own state, which then
// renders and continues as the original does, and refuses states no
// appends could leave, each with its pinned text.
func TestSeriesRestore(t *testing.T) {
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(3 + (i*31)%7)
	}
	orig := NewSeries("r", 300, 20)
	for _, v := range vals[:150] {
		orig.Append(v)
	}
	full := appended("r", vals, 20)
	s := NewSeries("r", 300, 20)
	if err := s.Restore(orig.State()); err != nil {
		t.Fatal(err)
	}
	for _, v := range vals[150:] {
		s.Append(v)
	}
	if got, want := s.Render(7), full.Render(7); got != want {
		t.Fatalf("restored and continued:\n%s\nwant:\n%s", got, want)
	}

	for _, tc := range []struct {
		name    string
		n       int64
		lo, hi  float64
		buckets []float64
		want    string
	}{
		{"past the length", 301, 3, 9, make([]float64, 20), `metrics: series "r": 301 samples, outside [0, 300]`},
		{"negative count", -1, 3, 9, nil, `metrics: series "r": -1 samples, outside [0, 300]`},
		{"one bucket short", 16, 3, 9, []float64{3}, `metrics: series "r": 1 buckets for 16 samples, want 2`},
		{"one bucket over", 15, 3, 9, []float64{3, 4}, `metrics: series "r": 2 buckets for 15 samples, want 1`},
		{"bucket over the maximum", 15, 3, 5, []float64{9}, `metrics: series "r": bucket 0 maximum 9 outside [3, 5]`},
		{"bucket under the minimum", 15, 3, 9, []float64{2}, `metrics: series "r": bucket 0 maximum 2 outside [3, 9]`},
		{"NaN bucket", 15, 3, 9, []float64{math.NaN()}, `metrics: series "r": bucket 0 maximum NaN outside [3, 9]`},
		{"infinite maximum", 15, 3, math.Inf(1), []float64{math.Inf(1)}, `metrics: series "r": span [3, +Inf] is not finite`},
		{"span overflows", 15, -math.MaxFloat64, math.MaxFloat64, []float64{0}, `metrics: series "r": span [-1.7976931348623157e+308, 1.7976931348623157e+308] is not finite`},
		{"NaN minimum", 15, math.NaN(), 9, []float64{3}, `metrics: series "r": span [NaN, 9] is not finite`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := NewSeries("r", 300, 20).Restore(SeriesState{N: tc.n, Min: tc.lo, Max: tc.hi, Buckets: tc.buckets})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Restore = %v, want %q", err, tc.want)
			}
		})
	}
	// An empty state restores with minimum and maximum 0, whatever it
	// says.
	e := NewSeries("r", 300, 20)
	if err := e.Restore(SeriesState{Min: 5, Max: 3}); err != nil || e.State().Min != 0 || e.State().Max != 0 || e.State().N != 0 {
		t.Fatalf("empty restore: %v, state %+v", err, e.State())
	}
}

// oracleDownsample and oracleRender are the full-series Downsample and
// Render the fixed Series replaced, over the whole sample slice: the
// oracle the fixed series is checked against.
func oracleDownsample(vals []float64, n int) []float64 {
	if n <= 0 || len(vals) <= n {
		return append([]float64(nil), vals...)
	}
	var out []float64
	bucket := (len(vals) + n - 1) / n
	for i := 0; i < len(vals); i += bucket {
		end := i + bucket
		if end > len(vals) {
			end = len(vals)
		}
		best := vals[i]
		for _, v := range vals[i+1 : end] {
			if v > best {
				best = v
			}
		}
		out = append(out, best)
	}
	return out
}

func oracleRender(name string, vals []float64, rows, cols int) string {
	if rows <= 0 {
		rows = 10
	}
	if cols <= 0 {
		cols = 60
	}
	if len(vals) == 0 {
		return name + " (empty)\n"
	}
	ds := oracleDownsample(vals, cols)
	lo, hi := slices.Min(vals), slices.Max(vals)
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", len(ds)))
	}
	for c := 0; c < len(ds); c++ {
		v := ds[c]
		r := int((v - lo) / (hi - lo) * float64(rows-1))
		grid[rows-1-r][c] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (min %.3g, max %.3g, %d samples)\n", name, lo, hi, len(vals))
	for r, row := range grid {
		var axis float64
		if rows > 1 {
			axis = hi - (hi-lo)*float64(r)/float64(rows-1)
		} else {
			axis = hi
		}
		fmt.Fprintf(&b, "%8.3g |%s\n", axis, string(row))
	}
	return b.String()
}

// TestRenderMatchesOracle draws random series, complete, with the
// fixed Series and the oracle, over varied rows, columns and lengths
// around the bucket boundaries (0, 1, up to cols, cols±1, k·cols±1 and
// large), small integer values like Fig. 6's, wide floats, and constant
// series. Below the header the charts are byte-identical; the header
// states the samples' own minimum, maximum and count, as the oracle's
// does except for a constant series, whose maximum the oracle widened.
func TestRenderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1906, 72))
	draws := []func() float64{
		func() float64 { return float64(rng.IntN(10)) },
		func() float64 { return (rng.Float64() - 0.5) * 2e6 },
		func() float64 { return 3 },
	}
	checked := 0
	for _, cols := range []int{1, 2, 7, 60, 72, 100} {
		lengths := []int{0, 1, cols / 2, cols - 1, cols, cols + 1, 10_007}
		for _, k := range []int{2, 3, 7, 28} {
			lengths = append(lengths, k*cols-1, k*cols, k*cols+1)
		}
		for _, n := range lengths {
			for _, draw := range draws {
				vals := make([]float64, n)
				for i := range vals {
					vals[i] = draw()
				}
				for _, rows := range []int{1, 2, 5, 7} {
					got := appended("s", vals, cols).Render(rows)
					want := oracleRender("s", vals, rows, cols)
					gotHead, gotBody, _ := strings.Cut(got, "\n")
					wantHead, wantBody, _ := strings.Cut(want, "\n")
					if gotBody != wantBody {
						t.Fatalf("%d samples, %d cols, %d rows: chart\n%s\noracle:\n%s", len(vals), cols, rows, got, want)
					}
					head := "s (empty)"
					if len(vals) > 0 {
						head = fmt.Sprintf("s (min %.3g, max %.3g, %d samples)", slices.Min(vals), slices.Max(vals), len(vals))
					}
					if gotHead != head {
						t.Fatalf("%d samples, %d cols, %d rows: header %q, want %q", len(vals), cols, rows, gotHead, head)
					}
					if constant := len(vals) > 0 && slices.Min(vals) == slices.Max(vals); !constant && wantHead != head {
						t.Fatalf("%d samples, %d cols, %d rows: oracle header %q, want %q", len(vals), cols, rows, wantHead, head)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d renders checked", checked)
}

// Property: histogram fractions always sum to ~1 for non-empty histograms.
func TestFractionSumProperty(t *testing.T) {
	f := func(obs []uint8) bool {
		if len(obs) == 0 {
			return true
		}
		h := NewIntHistogram()
		for _, o := range obs {
			h.Observe(int(o) % 8)
		}
		sum := 0.0
		for _, v := range h.Values() {
			sum += h.Fraction(v)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the fixed series' buckets are the oracle's downsampled
// values, and the largest of them is the maximum (max-pooling
// invariant).
func TestDownsampleMaxProperty(t *testing.T) {
	f := func(vals []float64, n uint8) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		cols := int(n%50) + 1
		s := appended("p", vals, cols)
		bs := s.State().Buckets
		if !slices.Equal(bs, oracleDownsample(vals, cols)) {
			return false
		}
		if len(vals) == 0 {
			return len(bs) == 0
		}
		st := s.State()
		return slices.Max(bs) == st.Max && st.Max == slices.Max(vals) && st.Min == slices.Min(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
