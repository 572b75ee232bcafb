package core

// pairAndAVX512 is pairAnd's loop as one VPANDQ, VPOPCNTQ and VPADDQ
// per k of arow (pairand_amd64.s), for rows of at most eight words. It
// returns ok = false, having read nothing outside bits, when row i or a
// row k does not lie wholly inside bits; pairAnd's Go loop then panics on
// the same index.
//
//go:noescape
func pairAndAVX512(bits []uint64, words, i int, arow []Index) (sum int64, ok bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the register states the operating
// system saves on a context switch.
func xgetbv() (eax uint32)

// hasAVX512PopCount reports whether the CPU has AVX-512F and
// AVX512_VPOPCNTDQ and the operating system saves the opmask and ZMM
// registers, the states pairAndAVX512 uses.
func hasAVX512PopCount() bool {
	const (
		osxsave   = 1 << 27 // CPUID.1:ECX
		avx512f   = 1 << 16 // CPUID.(7,0):EBX
		vpopcntdq = 1 << 14 // CPUID.(7,0):ECX
		// XCR0: SSE, AVX, opmask, ZMM0-15 upper halves and ZMM16-31.
		zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || xgetbv()&zmmState != zmmState {
		return false
	}
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ecx&vpopcntdq != 0
}
