package xrand

// useAVX2 reports whether Misses4 runs the AVX2 scan. It is read from
// the CPU once, at start-up.
var useAVX2 = hasAVX2()

// misses4 runs the AVX2 scan where the CPU has it, the portable one
// otherwise.
func misses4(g *[4]Rand, thresh uint64, n int64) (int64, uint) {
	if useAVX2 {
		return misses4AVX2(g, thresh, n)
	}
	return misses4Go(g, thresh, n)
}

// hasAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers across context switches (CPUID.1:ECX.OSXSAVE
// and AVX, XCR0 bits 1 and 2, CPUID.7:EBX.AVX2), the test the standard
// library's internal/cpu makes; the standard library exports no CPU
// flags.
func hasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuid executes CPUID with the given EAX and ECX inputs.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// misses4AVX2 is misses4Go with the four streams' state words in four
// YMM registers, one stream per 64-bit lane.
//
//go:noescape
func misses4AVX2(lanes *[4]Rand, thresh uint64, n int64) (misses int64, hits uint)
