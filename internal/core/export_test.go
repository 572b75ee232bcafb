package core

// Test hook: withPortablePairAnd runs f with MaskedPairCount ANDing hub
// bitmaps on pairAnd's Go loop, whatever the CPU has, so that a host with
// AVX-512 tests both loops. The tests of other packages reach
// setPairAVX512 from their own export_test.go.
func withPortablePairAnd(f func()) {
	defer setPairAVX512(setPairAVX512(false))
	f()
}
