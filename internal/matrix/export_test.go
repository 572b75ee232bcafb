package matrix

import "math"

// Test hooks: the relabel on exactly p ranges, the degree orientation on
// exactly p spans and the count operand on p spans and p ranges, whatever
// the graph's size, so that the tests can split graphs smaller than
// relabelMinRangeNNZ or rowSpanMinWeight, and the range bounds the relabel
// would use. PairOperandHubs also fixes the operand's hub count at
// min(k, n) and keeps the bits of any k > 0, whatever the rule says.

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
	return pairOperandOn(a.Pattern(), p, maxPairHubs, false)
}

func PairOperandHubs(a *CSR[float64], p, k int) *PairOperand {
	return pairOperandOn(a.Pattern(), p, k, true)
}

func pairOperandOn(g *Pattern, p, k int, force bool) *PairOperand {
	hubs := pairHubs(g, k)
	x, hubNNZ := degreeTril(g, rowSpans(g.RowPtr, p), p, hubMin(g, hubs))
	return pairOperand(x, hubNNZ, hubs, rowSpans(x.RowPtr, p), force)
}

const MaxPairHubs = maxPairHubs
