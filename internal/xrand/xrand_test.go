package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: generators diverged: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	var allZero = true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("zero seed produced all-zero outputs")
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split()
	c2 := root.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams produced %d identical outputs in 100 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("split is not a pure function of the root seed")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 500 || c > 1500 {
			t.Fatalf("Intn(10) value %d drawn %d times in 10000; badly skewed", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) hit rate %v, want ~0.25", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 5, 50} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(33)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestExpFloat64Positive(t *testing.T) {
	r := New(55)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 negative: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.02 {
		t.Fatalf("ExpFloat64 mean %v, want ~1.0", mean)
	}
}

// Property: boundedUint64 via Intn never exceeds its bound, for arbitrary
// seeds and bounds.
func TestIntnBoundProperty(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound)%1000 + 1
		r := New(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Split children of equal roots are equal; children of a root
// never equal the root's own continuing stream for the first draw window.
func TestSplitProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r1 := New(seed)
		r2 := New(seed)
		c1 := r1.Split()
		c2 := r2.Split()
		for i := 0; i < 8; i++ {
			if c1.Uint64() != c2.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Float64()
	}
}

func TestSeedsDeterministicAndDistinct(t *testing.T) {
	a := Seeds(1906, 16)
	b := Seeds(1906, 16)
	if len(a) != 16 {
		t.Fatalf("len = %d", len(a))
	}
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed %d not deterministic: %d vs %d", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Fatalf("seed %d repeats value %d", i, a[i])
		}
		seen[a[i]] = true
	}
	// A prefix of a longer derivation is the same sequence: replica i's
	// seed depends only on (root, i), not on the replica count.
	long := Seeds(1906, 64)
	for i := range a {
		if long[i] != a[i] {
			t.Fatalf("seed %d changed with n: %d vs %d", i, long[i], a[i])
		}
	}
}

// missesEdgeP are the probabilities at which Misses's integer hit test
// is most likely to part from Bool's: the extremes of the open interval
// (0, 1), the point where p·2^53 is 1, the Fig. 7 background rate, and
// the values at which Bool draws nothing, so callers answer without
// calling Misses.
var missesEdgeP = []float64{
	math.SmallestNonzeroFloat64,
	0x1p-53,
	1e-7,
	0.5,
	math.Nextafter(1, 0),
	0, -1, 1, 2,
}

// TestMissesMatchesBool runs Misses at HitThreshold(p) and a plain
// Bool(p) loop on twin generators over random run lengths: both must
// report the same run, and leave the stream at the same state, after
// every call. At p <= 0 and p >= 1 the Misses side answers as callers
// do, without drawing (n misses, or a hit at once), so there the
// Bool loop must draw nothing either.
func TestMissesMatchesBool(t *testing.T) {
	ps := append([]float64{0.3, 0.9, 0.01}, missesEdgeP...)
	lengths := New(11)
	for _, p := range ps {
		a, b := New(1906), New(1906)
		for call := 0; call < 200; call++ {
			n := int64(lengths.Intn(5000))
			var misses int64
			var hit bool
			switch {
			case p <= 0:
				misses = n
			case p >= 1:
				hit = n > 0
			default:
				misses, hit = a.Misses(HitThreshold(p), n)
			}
			var want int64
			var wantHit bool
			for ; want < n; want++ {
				if b.Bool(p) {
					wantHit = true
					break
				}
			}
			if misses != want || hit != wantHit {
				t.Fatalf("p=%g call %d: Misses(%d) = (%d, %v), Bool loop (%d, %v)", p, call, n, misses, hit, want, wantHit)
			}
			if a.State() != b.State() {
				t.Fatalf("p=%g call %d: streams diverged", p, call)
			}
		}
	}
}

// TestBelowMatchesFloat64Compare checks Misses's integer hit test draw
// by draw against Bool's Float64() < p: one-draw Misses calls at
// HitThreshold(p) on the draws at, one below and one above the
// threshold, and on random draws.
func TestBelowMatchesFloat64Compare(t *testing.T) {
	r := New(7)
	ps := append([]float64{0.3, 0.999}, missesEdgeP...)
	for _, p := range ps {
		if p <= 0 || p >= 1 {
			continue // Bool draws nothing here, and callers skip Misses
		}
		thresh := HitThreshold(p)
		draws := []uint64{thresh - 1, thresh, thresh + 1}
		for i := 0; i < 10_000; i++ {
			draws = append(draws, r.Uint64())
		}
		for _, u := range draws {
			if got := drawing(u).Uint64(); got != u {
				t.Fatalf("drawing(%#x) draws %#x", u, got)
			}
			want := drawing(u).Float64() < p
			if _, got := drawing(u).Misses(thresh, 1); got != want {
				t.Fatalf("p=%g u=%#x thresh=%#x: Misses hit %v, Float64 compare %v", p, u, thresh, got, want)
			}
		}
	}
}

// drawing returns a generator whose next Uint64 is u. xoshiro256**
// outputs rotl(s1·5, 7)·9; 5 and 9 are odd, so invertible modulo 2^64,
// and s1 follows from u. The other words only keep the state nonzero.
func drawing(u uint64) *Rand {
	s1 := bits.RotateLeft64(u*inverse64(9), -7) * inverse64(5)
	r := &Rand{}
	if err := r.SetState([4]uint64{1, s1, 0, 0}); err != nil {
		panic(err)
	}
	return r
}

// inverse64 returns the inverse of odd x modulo 2^64 by Newton's
// iteration: x is its own inverse modulo 8, and each step doubles the
// number of correct low bits.
func inverse64(x uint64) uint64 {
	y := x
	for i := 0; i < 5; i++ {
		y *= 2 - x*y
	}
	return y
}
