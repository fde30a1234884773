package xrand

// useAVX2 and useAVX512 report whether the CPU runs the AVX2 and the
// AVX-512F scans. They are read from the CPU once, at start-up.
var useAVX2, useAVX512 = vectorFeatures()

// missesN runs the widest scan the CPU has: the AVX-512F one, else the
// AVX2 one (four-wide for four or fewer live streams, where a second
// register set would only step padding), else the portable one.
func missesN(w *[4][MaxStreams]uint64, k int, thresh uint64, n int64) (int64, uint) {
	switch {
	case useAVX512:
		return missesAVX512(w, thresh, n)
	case useAVX2 && k <= 4:
		return misses4AVX2(w, thresh, n)
	case useAVX2:
		return misses8AVX2(w, thresh, n)
	}
	return missesGo(w, k, thresh, n)
}

// vectorFeatures reports whether the CPU has AVX2 and AVX-512F and the
// operating system saves the registers each needs across context
// switches, the tests the standard library's internal/cpu makes; the
// standard library exports no CPU flags. Both need CPUID leaf 7 and
// CPUID.1:ECX.OSXSAVE and AVX. AVX2 is CPUID.7:EBX bit 5 with XCR0
// bits 1 and 2 (SSE and YMM state); AVX-512F is CPUID.7:EBX bit 16
// with XCR0 bits 1, 2 and 5 to 7 (also the opmask registers and both
// halves of the ZMM state).
func vectorFeatures() (avx2, avx512 bool) {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false, false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	return xcr0&0x06 == 0x06 && ebx&(1<<5) != 0, xcr0&0xe6 == 0xe6 && ebx&(1<<16) != 0
}

// cpuid executes CPUID with the given EAX and ECX inputs.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// missesAVX512 scans all eight slots of w, one ZMM register per state
// word.
//
//go:noescape
func missesAVX512(w *[4][MaxStreams]uint64, thresh uint64, n int64) (misses int64, hits uint)

// misses4AVX2 scans slots 0 to 3 of w, one YMM register per state word.
//
//go:noescape
func misses4AVX2(w *[4][MaxStreams]uint64, thresh uint64, n int64) (misses int64, hits uint)

// misses8AVX2 scans all eight slots of w in two YMM register sets,
// slots 0 to 3 and 4 to 7.
//
//go:noescape
func misses8AVX2(w *[4][MaxStreams]uint64, thresh uint64, n int64) (misses int64, hits uint)
