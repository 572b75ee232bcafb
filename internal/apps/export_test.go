package apps

import _ "unsafe" // go:linkname

// Test hook: withPortablePairAnd runs f with core.MaskedPairCount ANDing
// hub bitmaps on its portable Go loop, whatever the CPU has, so that a
// host with AVX-512 tests both loops. core's setting is its unexported
// setPairAVX512, linked here: without it the test binary fails to link.
func withPortablePairAnd(f func()) {
	defer coreSetPairAVX512(coreSetPairAVX512(false))
	f()
}

//go:linkname coreSetPairAVX512 repro/internal/core.setPairAVX512
func coreSetPairAVX512(on bool) (old bool)
