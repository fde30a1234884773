package xrand

import (
	"fmt"
	"strings"
	"testing"
)

// scanN is one way to scan live streams g: MissesN, or one kernel run
// as MissesN runs it (kernel). It takes at most width streams.
type scanN struct {
	name  string
	width int
	scan  func(g []Rand, thresh uint64, n int64) (int64, uint)
}

// scans lists MissesN and every kernel this CPU runs: the portable one
// and the vector ones (vectorScans).
func scans() []scanN {
	out := []scanN{{"MissesN", MaxStreams, func(g []Rand, thresh uint64, n int64) (int64, uint) {
		var r [MaxStreams]*Rand
		for i := range g {
			r[i] = &g[i]
		}
		return MissesN(r[:len(g)], thresh, n)
	}}}
	out = append(out, kernel("portable", MaxStreams, missesGo))
	return append(out, vectorScans()...)
}

// kernel runs a word-major kernel on live streams as MissesN does:
// gathered word-major, the slots past len(g) repeating g[0], and the
// mask cut to the live streams.
func kernel(name string, width int, scan func(w *[4][MaxStreams]uint64, k int, thresh uint64, n int64) (int64, uint)) scanN {
	return scanN{name, width, func(g []Rand, thresh uint64, n int64) (int64, uint) {
		var w [4][MaxStreams]uint64
		for i := range MaxStreams {
			for j := range 4 {
				w[j][i] = g[0].s[j]
				if i < len(g) {
					w[j][i] = g[i].s[j]
				}
			}
		}
		m, hits := scan(&w, len(g), thresh, n)
		for i := range g {
			for j := range 4 {
				g[i].s[j] = w[j][i]
			}
		}
		return m, hits & (1<<len(g) - 1)
	}}
}

// TestMisses8MatchesMisses runs every kernel this CPU has, and MissesN,
// on one to eight live streams against eight scalar Misses streams,
// and compares the miss count, the hit mask and all four state words
// of every live stream after every call (MissesN must also leave the
// others alone). From p = 0.5 up the threshold's top bit is set, where
// a signed compare without the sign flip goes wrong. The run lengths
// include 0 and 1, a stream put just before a hit (a hit on the first
// draw), a stream put just before a draw of exactly thresh, which
// misses, or thresh−1, which hits (an inclusive compare goes wrong),
// and n set to the earliest next hit (a hit on the n-th draw); some
// calls give two live streams the same state. Run with -v, it logs the
// kernels it ran.
func TestMisses8MatchesMisses(t *testing.T) {
	var names []string
	for _, sc := range scans() {
		names = append(names, fmt.Sprintf("%s (1-%d streams)", sc.name, sc.width))
		for _, p := range []float64{1e-7, 1e-3, 0.3, 0.5, 0.9} {
			t.Run(fmt.Sprintf("%s/p=%g", sc.name, p), func(t *testing.T) {
				testScan(t, sc, HitThreshold(p))
			})
		}
	}
	t.Logf("kernels run: %s; MissesN picks AVX-512F %v, AVX2 %v", strings.Join(names, ", "), useAVX512, useAVX2)
}

// testScan drives sc with 1 to sc.width live streams at threshold
// thresh; see TestMisses8MatchesMisses.
func testScan(t *testing.T, sc scanN, thresh uint64) {
	var lanes, twins [MaxStreams]Rand
	for i, s := range Seeds(1906, MaxStreams) {
		lanes[i] = *New(s)
		twins[i] = lanes[i]
	}
	rng := New(29)
	for call := 0; call < 240; call++ {
		k := 1 + call%sc.width
		var n int64
		twin := -1 // a live stream that shares another's state for this call
		switch c := rng.Intn(8); c {
		case 0:
			n = int64(rng.Intn(2))
		case 1, 2:
			// Stream i's next draw is u; drawing's state makes it so.
			// Case 1 makes it a hit, case 2 the draw at the threshold
			// or just below it.
			i := rng.Intn(k)
			u := rng.Uint64() % thresh
			if c == 2 {
				u = thresh - uint64(rng.Intn(2))
			}
			if err := lanes[i].SetState(drawing(u).State()); err != nil {
				t.Fatal(err)
			}
			twins[i] = lanes[i]
			n = 1 + int64(rng.Intn(3))
		case 3:
			n = firstHit(twins[:k], thresh, 2000)
		case 4:
			if k > 1 {
				// Stream twin takes stream i's state for this call.
				i := rng.Intn(k)
				twin = (i + 1 + rng.Intn(k-1)) % k
				lanes[twin], twins[twin] = lanes[i], twins[i]
			}
			n = int64(rng.Intn(2000))
		default:
			n = int64(rng.Intn(2000))
		}
		firstAt := firstHit(twins[:k], thresh, n)
		wantMisses, wantHits, advance := n, uint(0), n
		if firstAt <= n {
			wantMisses, advance = firstAt-1, firstAt
		}
		for i := range twins[:k] {
			if _, hit := twins[i].Misses(thresh, advance); hit {
				wantHits |= 1 << i
			}
		}
		misses, hits := sc.scan(lanes[:k], thresh, n)
		if misses != wantMisses || hits != wantHits {
			t.Fatalf("call %d: scan(k=%d, n=%d) = (%d, %08b), %d Misses streams (%d, %08b)",
				call, k, n, misses, hits, k, wantMisses, wantHits)
		}
		for i := range lanes {
			if lanes[i].State() != twins[i].State() {
				t.Fatalf("call %d (k=%d): stream %d at %x, its Misses twin at %x",
					call, k, i, lanes[i].State(), twins[i].State())
			}
		}
		if twin >= 0 {
			lanes[twin] = *New(rng.Uint64())
			twins[twin] = lanes[twin]
		}
	}
}

// firstHit returns the draw, counted from 1, at which the first of the
// streams g falls below thresh, or limit+1 when none does within limit
// draws. The streams do not move.
func firstHit(g []Rand, thresh uint64, limit int64) int64 {
	first := limit + 1
	for _, r := range g {
		if m, hit := r.Misses(thresh, limit); hit {
			first = min(first, m+1)
		}
	}
	return first
}

// TestMissesNPanicsOutsideOneToEight pins MissesN's stream count.
func TestMissesNPanicsOutsideOneToEight(t *testing.T) {
	for _, k := range []int{0, MaxStreams + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MissesN with %d generators did not panic", k)
				}
			}()
			r := make([]*Rand, k)
			for i := range r {
				r[i] = New(uint64(i))
			}
			MissesN(r, HitThreshold(0.5), 10)
		}()
	}
}

// BenchmarkMisses8 times streams drawing at the Fig. 7 background rate
// (1e-7) in ns per draw: eight in turn by Misses ("scalar"), eight
// together by MissesN, which gathers them through pointers and runs
// the kernel the CPU picks, and as many as each kernel takes (four for
// "avx2", eight for the others) together on that kernel.
func BenchmarkMisses8(b *testing.B) {
	thresh := HitThreshold(1e-7)
	const run = 1 << 12
	b.Run("scalar", func(b *testing.B) {
		var g [MaxStreams]Rand
		for i, s := range Seeds(1, MaxStreams) {
			g[i] = *New(s)
		}
		var draws int64
		for i := 0; i < b.N; i++ {
			for j := range g {
				m, hit := g[j].Misses(thresh, run)
				draws += m
				if hit {
					draws++
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
	})
	for _, sc := range scans() {
		b.Run(sc.name, func(b *testing.B) {
			g := make([]Rand, sc.width)
			for i, s := range Seeds(1, sc.width) {
				g[i] = *New(s)
			}
			var draws int64
			for i := 0; i < b.N; i++ {
				m, hits := sc.scan(g, thresh, run)
				draws += int64(sc.width) * (m + int64(min(hits, 1)))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
		})
	}
}
