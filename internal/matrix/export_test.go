package matrix

// Test hooks: the relabel on exactly p ranges and the degree orientation
// on exactly p spans, whatever the graph's size, so that the tests can
// split graphs smaller than relabelMinRangeNNZ or rowSpanMinWeight, and
// the range bounds the relabel would use.

func RelabelTrilRanges(a *CSR[float64], p int) *CSR[float64] {
	return Transpose(relabelUpper(a, p))
}

func DegreeTrilSpans(a *CSR[float64], p int) *Pattern {
	return degreeTril(a, rowSpans(a.RowPtr, p), p)
}

func RelabelBounds(a *CSR[float64], p int) []Index {
	return nnzRanges(a, degreeDescOrder(a), p)
}
