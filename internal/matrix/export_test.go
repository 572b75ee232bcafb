package matrix

import (
	"math"
	_ "unsafe" // go:linkname
)

// Test hooks: the relabel on exactly p ranges, the degree orientation on
// exactly p spans and the count operand on p spans and p ranges, whatever
// the graph's size, so that the tests can split graphs smaller than
// relabelMinRangeNNZ or rowSpanMinWeight, and the range bounds the relabel
// would use. PairOperandHubs also fixes the operand's hub count at
// min(k, n, MaxPairHubs), keeps the bits of any k > 0 and keeps Walks
// when walks is set and drops it otherwise, whatever the rules say.

func RelabelTrilRanges(a *CSR[float64], p int) *CSR[float64] {
	return Transpose(relabelUpper(a, p))
}

func DegreeTrilSpans(a *CSR[float64], p int) *Pattern {
	x, _ := degreeTril(a.Pattern(), rowSpans(a.RowPtr, p), p, math.MaxInt64)
	return x
}

func RelabelBounds(a *CSR[float64], p int) []Index {
	return nnzRanges(a, degreeDescOrder(a.RowPtr), p)
}

func PairOperandRanges(a *CSR[float64], p int) *PairOperand {
	return pairOperandOn(a.Pattern(), p, maxPairHubs, byRule, byRule)
}

func PairOperandHubs(a *CSR[float64], p, k int, walks bool) *PairOperand {
	walksRule := never
	if walks {
		walksRule = always
	}
	return pairOperandOn(a.Pattern(), p, k, always, walksRule)
}

func pairOperandOn(g *Pattern, p, k int, bitsRule, walksRule pairRule) *PairOperand {
	hubs := pairHubs(g, k)
	x, hubNNZ := degreeTril(g, rowSpans(g.RowPtr, p), p, hubMin(g, hubs))
	return pairOperand(x, hubNNZ, hubs, rowSpans(x.RowPtr, p), bitsRule, walksRule)
}

const MaxPairHubs = maxPairHubs

// WithPortablePairAnd runs f with core.MaskedPairCount ANDing hub bitmaps
// on its portable Go loop, whatever the CPU has, so that a host with
// AVX-512 tests both loops. core's setting is its unexported
// setPairAVX512, linked here because core imports matrix: without it the
// test binary fails to link.
func WithPortablePairAnd(f func()) {
	defer coreSetPairAVX512(coreSetPairAVX512(false))
	f()
}

//go:linkname coreSetPairAVX512 repro/internal/core.setPairAVX512
func coreSetPairAVX512(on bool) (old bool)
