package xrand

// MaxStreams is the most generators one MissesN call scans: the eight
// 64-bit lanes of an AVX-512 register.
const MaxStreams = 8

// MissesN is Misses on one to MaxStreams generators in lockstep. Each
// draw advances all of them, and the scan stops after the first draw at
// which at least one of them falls below thresh, or after n draws (none
// when n ≤ 0). It returns the number of draws m before that one and a
// mask whose bit i is set when r[i]'s draw fell below thresh: every
// generator advances m draws, plus one more when the mask is non-zero.
// So r[i] ends where Misses(thresh, m) would leave it, or
// Misses(thresh, m+1) when the mask is non-zero, and a set bit i means
// that last draw was r[i]'s hit.
//
// The streams are independent and share only thresh, so a scan is
// len(r) Misses calls cut at a common length. A generator may fill more
// than one slot; it then advances as one, and its bits agree. MissesN
// panics when r is empty or longer than MaxStreams.
//
// The scan gathers the states word-major (word j of r[i] at w[j][i]),
// so a kernel loads each state word of every stream as one vector, and
// runs the first kernel the CPU has: with AVX-512F, the eight slots in
// one ZMM register per state word; with AVX2, four slots in one YMM
// register per word when at most four streams are live, and eight in
// two YMM sets otherwise; elsewhere the streams in turn (missesGo). A
// vector kernel steps every slot it holds, so the slots past len(r)
// repeat r[0]'s state: they advance as r[0] does, hit only where it
// does, and are left out of the mask.
func MissesN(r []*Rand, thresh uint64, n int64) (misses int64, hits uint) {
	k := len(r)
	if k < 1 || k > MaxStreams {
		panic("xrand: MissesN takes 1 to 8 generators")
	}
	var w [4][MaxStreams]uint64
	for i := range MaxStreams {
		g := r[0]
		if i < k {
			g = r[i]
		}
		for j, s := range g.s {
			w[j][i] = s
		}
	}
	misses, hits = missesN(&w, k, thresh, max(n, 0))
	for i, g := range r {
		for j := range g.s {
			g.s[j] = w[j][i]
		}
	}
	return misses, hits & (1<<k - 1)
}

// missesGo is the portable scan of the first k streams of w, and the
// reference the vector kernels are tested against. It is the definition
// above, with each stream's run held in registers by Misses: every
// stream runs on a copy up to the earliest hit found so far, and a
// stream whose copy drew past the final cut redraws from its start up
// to the cut, where it cannot hit. Without a hit, as on almost every
// call at the Fig. 7 background rate, no stream redraws, and a scan of
// k streams costs k Misses calls.
func missesGo(w *[4][MaxStreams]uint64, k int, thresh uint64, n int64) (int64, uint) {
	var g, c [MaxStreams]Rand
	var drawn [MaxStreams]int64
	cut, hits := n, uint(0)
	for i := range k {
		g[i].s = [4]uint64{w[0][i], w[1][i], w[2][i], w[3][i]}
		c[i] = g[i]
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
	for i := range k {
		if drawn[i] != cut {
			c[i] = g[i]
			c[i].Misses(thresh, cut)
		}
		for j, s := range c[i].s {
			w[j][i] = s
		}
	}
	if hits != 0 {
		return cut - 1, hits
	}
	return cut, 0
}
