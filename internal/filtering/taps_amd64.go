package filtering

// taps16 is convolveTaps's amd64 AVX2 kernel (taps_amd64.s): out[x] =
// Σ_k kern[k]·src[offs[k]+x] for x in [0, n), n a positive multiple of 16,
// nk = len(kern) >= 1 and every src[offs[k]+x] in range. It makes the
// scalar loop's operations in its order, so its bits are the same.
//
//go:noescape
func taps16(out, src *float64, offs *int, kern *float64, nk, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// taps16Supported reports whether the CPU has AVX2 and the OS saves the
// YMM registers across context switches (OSXSAVE set and XCR0 enabling
// the XMM and YMM state).
func taps16Supported() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
