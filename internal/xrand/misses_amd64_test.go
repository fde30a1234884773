package xrand

// vectorScans lists the vector kernels this CPU runs.
func vectorScans() []scanN {
	var out []scanN
	if useAVX2 {
		out = append(out,
			kernel("avx2", 4, func(w *[4][MaxStreams]uint64, _ int, thresh uint64, n int64) (int64, uint) {
				return misses4AVX2(w, thresh, n)
			}),
			kernel("avx2x2", MaxStreams, func(w *[4][MaxStreams]uint64, _ int, thresh uint64, n int64) (int64, uint) {
				return misses8AVX2(w, thresh, n)
			}))
	}
	if useAVX512 {
		out = append(out, kernel("avx512", MaxStreams, func(w *[4][MaxStreams]uint64, _ int, thresh uint64, n int64) (int64, uint) {
			return missesAVX512(w, thresh, n)
		}))
	}
	return out
}
