package matrix

// Test hooks: the relabel on exactly p ranges, the degree orientation on
// exactly p spans and the count operand on p spans and p ranges, whatever
// the graph's size, so that the tests can split graphs smaller than
// relabelMinRangeNNZ or rowSpanMinWeight, and the range bounds the relabel
// would use.

func RelabelTrilRanges(a *CSR[float64], p int) *CSR[float64] {
	return Transpose(relabelUpper(a, p))
}

func DegreeTrilSpans(a *CSR[float64], p int) *Pattern {
	return degreeTril(a.Pattern(), rowSpans(a.RowPtr, p), p)
}

func RelabelBounds(a *CSR[float64], p int) []Index {
	return nnzRanges(a, degreeDescOrder(a), p)
}

func PairOperandRanges(a *CSR[float64], p int) *PairOperand {
	x := degreeTril(a.Pattern(), rowSpans(a.RowPtr, p), p)
	return pairOperand(x, rowSpans(x.RowPtr, p))
}
