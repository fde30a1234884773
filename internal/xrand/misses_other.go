//go:build !amd64

package xrand

// useAVX2 and useAVX512 are false off amd64: there is no vector scan to
// choose.
const useAVX2, useAVX512 = false, false

// missesN runs the portable scan, the only one on this platform.
func missesN(w *[4][MaxStreams]uint64, k int, thresh uint64, n int64) (int64, uint) {
	return missesGo(w, k, thresh, n)
}
