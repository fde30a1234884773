package xrand

import "slices"

// Misses4 is Misses on four generators in lockstep. Each draw advances
// all four, and the scan stops after the first draw at which at least
// one of them falls below thresh, or after n draws. It returns the
// number of draws m before that one and a mask whose bit i is set when
// r[i]'s draw fell below thresh: every generator advances m draws, plus
// one more when the mask is non-zero. So r[i] ends where Misses(thresh,
// m) would leave it, or Misses(thresh, m+1) when the mask is non-zero,
// and a set bit i means that last draw was r[i]'s hit.
//
// The four streams are independent and share only thresh, so a scan is
// four Misses calls cut at a common length. A generator may fill more
// than one slot; it then advances as one, and its bits agree. On CPUs
// with AVX2 the scan runs the four streams in one vector register per
// state word; elsewhere it runs them in turn (misses4Go).
func Misses4(r *[4]*Rand, thresh uint64, n int64) (misses int64, hits uint) {
	var g [4]Rand
	for i, p := range r {
		g[i] = *p
	}
	misses, hits = misses4(&g, thresh, n)
	for i, p := range r {
		*p = g[i]
	}
	return misses, hits
}

// misses4Go is the portable four-stream scan, and the reference the
// vector scan is tested against. It is the definition above, with each
// stream's run held in registers by Misses: every stream runs on a
// copy up to the earliest hit found so far, and a stream whose copy
// drew past the final cut redraws from its start up to the cut, where
// it cannot hit. A slot whose state equals an earlier slot's draws what
// that slot draws, so it takes that slot's result without drawing: a
// scan with k distinct streams, as when Run fills a group's empty slots
// with one of its lanes, costs k Misses calls. Without a hit, as on
// almost every call at the Fig. 7 background rate, no stream redraws.
func misses4Go(g *[4]Rand, thresh uint64, n int64) (int64, uint) {
	c := *g
	var drawn [4]int64
	var same [4]int // an earlier slot with the same state, or -1
	cut, hits := n, uint(0)
	for i := range c {
		if same[i] = slices.Index(g[:i], g[i]); same[i] >= 0 {
			continue
		}
		m, hit := c[i].Misses(thresh, cut)
		drawn[i] = m
		if !hit {
			continue
		}
		drawn[i]++
		if m+1 < cut {
			cut, hits = m+1, 0
		}
		hits |= 1 << i
	}
	for i := range c {
		switch j := same[i]; {
		case j >= 0:
			g[i] = g[j]
			hits |= hits >> j & 1 << i
		case drawn[i] == cut:
			g[i] = c[i]
		default:
			g[i].Misses(thresh, cut)
		}
	}
	if hits != 0 {
		return cut - 1, hits
	}
	return cut, 0
}
