//go:build !amd64

package xrand

// useAVX2 is false off amd64: there is no vector scan to choose.
const useAVX2 = false

// misses4 runs the portable scan, the only one on this platform.
func misses4(g *[4]Rand, thresh uint64, n int64) (int64, uint) {
	return misses4Go(g, thresh, n)
}
