package matrix

// Test hooks: the relabel on exactly p ranges, whatever the graph's size,
// so that the tests can split graphs smaller than relabelMinRangeNNZ, and
// the range bounds it would use.

func RelabelTrilRanges(a *CSR[float64], p int) *CSR[float64] {
	return Transpose(relabelUpper(a, true, p))
}

func RelabelTriuRanges(a *CSR[float64], p int) *Pattern {
	return relabelUpper(a, false, p).Pattern()
}

func RelabelBounds(a *CSR[float64], p int) []Index {
	return nnzRanges(a, degreeDescOrder(a), p)
}
