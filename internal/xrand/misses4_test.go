package xrand

import (
	"fmt"
	"testing"
)

// scan4 is one implementation of the four-stream scan.
type scan4 struct {
	name string
	scan func(g *[4]Rand, thresh uint64, n int64) (int64, uint)
}

// scans4 lists the scans this CPU can run: the portable one, the AVX2
// one where the CPU has it, and Misses4 itself, which gathers the
// streams through pointers and runs the first scan the CPU has.
func scans4() []scan4 {
	out := []scan4{{"portable", misses4Go}}
	if useAVX2 {
		out = append(out, scan4{"avx2", misses4})
	}
	return append(out, scan4{"Misses4", func(g *[4]Rand, thresh uint64, n int64) (int64, uint) {
		r := [4]*Rand{&g[0], &g[1], &g[2], &g[3]}
		return Misses4(&r, thresh, n)
	}})
}

// TestMisses4MatchesMisses runs every four-stream scan against four
// scalar Misses streams and compares the miss count, the hit mask and
// all four state words of every stream after every call. From p = 0.5
// up the threshold's top bit is set, where a signed compare without
// the sign flip goes wrong. The run lengths include 0 and 1, a stream
// put just before a hit (a hit on the first draw), and n set to the
// earliest next hit (a hit on the n-th draw); some calls give two
// streams the same state, as Run's padded scans do.
func TestMisses4MatchesMisses(t *testing.T) {
	for _, sc := range scans4() {
		for _, p := range []float64{1e-7, 1e-3, 0.3, 0.5, 0.9} {
			t.Run(fmt.Sprintf("%s/p=%g", sc.name, p), func(t *testing.T) {
				thresh := HitThreshold(p)
				var lanes, twins [4]Rand
				for i, s := range Seeds(1906, 4) {
					lanes[i] = *New(s)
					twins[i] = lanes[i]
				}
				rng := New(29)
				for call := 0; call < 400; call++ {
					var n int64
					twin := -1 // a stream that shares another's state for this call
					switch rng.Intn(6) {
					case 0:
						n = 1
					case 1:
						// Stream i's next draw is u < thresh; drawing's
						// state makes it so.
						i := rng.Intn(4)
						st := drawing(rng.Uint64() % thresh).State()
						if err := lanes[i].SetState(st); err != nil {
							t.Fatal(err)
						}
						twins[i] = lanes[i]
						n = 1 + int64(rng.Intn(3))
					case 2:
						n = firstHit(&twins, thresh, 5000)
					case 3:
						// Stream twin takes stream i's state for this call,
						// as the slots Run pads a group's scan with do.
						i := rng.Intn(4)
						twin = (i + 1 + rng.Intn(3)) % 4
						lanes[twin], twins[twin] = lanes[i], twins[i]
						n = int64(rng.Intn(5000))
					default:
						n = int64(rng.Intn(5000))
					}
					firstAt := firstHit(&twins, thresh, n)
					wantMisses, wantHits, advance := n, uint(0), n
					if firstAt <= n {
						wantMisses, advance = firstAt-1, firstAt
					}
					for i := range twins {
						if _, hit := twins[i].Misses(thresh, advance); hit {
							wantHits |= 1 << i
						}
					}
					misses, hits := sc.scan(&lanes, thresh, n)
					if misses != wantMisses || hits != wantHits {
						t.Fatalf("call %d: scan(n=%d) = (%d, %04b), four Misses streams (%d, %04b)",
							call, n, misses, hits, wantMisses, wantHits)
					}
					for i := range lanes {
						if lanes[i].State() != twins[i].State() {
							t.Fatalf("call %d: stream %d at %x, its Misses twin at %x",
								call, i, lanes[i].State(), twins[i].State())
						}
					}
					if twin >= 0 {
						lanes[twin] = *New(rng.Uint64())
						twins[twin] = lanes[twin]
					}
				}
			})
		}
	}
}

// firstHit returns the draw, counted from 1, at which the first of the
// four streams falls below thresh, or limit+1 when none does within
// limit draws. The streams do not move.
func firstHit(g *[4]Rand, thresh uint64, limit int64) int64 {
	first := limit + 1
	for _, r := range g {
		if m, hit := r.Misses(thresh, limit); hit {
			first = min(first, m+1)
		}
	}
	return first
}

// BenchmarkMisses4 times four streams drawing at the Fig. 7 background
// rate (1e-7), taken in turn by Misses and together by Misses4, in ns
// per draw.
func BenchmarkMisses4(b *testing.B) {
	thresh := HitThreshold(1e-7)
	const run = 1 << 12
	for _, mode := range []string{"scalar", "lanes"} {
		b.Run(mode, func(b *testing.B) {
			var g [4]*Rand
			for i, s := range Seeds(1, 4) {
				g[i] = New(s)
			}
			var draws int64
			for i := 0; i < b.N; i++ {
				if mode == "lanes" {
					m, hits := Misses4(&g, thresh, run)
					draws += 4 * (m + int64(min(hits, 1)))
					continue
				}
				for _, r := range g {
					m, hit := r.Misses(thresh, run)
					draws += m
					if hit {
						draws++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
		})
	}
}
