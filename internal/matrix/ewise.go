package matrix

// Element-wise operations on CSR matrices with sorted rows. These implement
// the GraphBLAS eWiseAdd (pattern union) and eWiseMult (pattern
// intersection) the graph applications are written in terms of.

// EWiseAdd returns the element-wise union of a and b: positions present in
// either input, with combine applied where both are present. Rows must be
// sorted; the result has sorted rows.
func EWiseAdd[T any](a, b *CSR[T], combine func(T, T) T) *CSR[T] {
	mustSameDims(a, b)
	out := &CSR[T]{NRows: a.NRows, NCols: a.NCols, RowPtr: make([]Index, a.NRows+1)}
	out.Col = make([]Index, 0, a.NNZ()+b.NNZ())
	out.Val = make([]T, 0, a.NNZ()+b.NNZ())
	for i := Index(0); i < a.NRows; i++ {
		ai, aEnd := a.RowPtr[i], a.RowPtr[i+1]
		bi, bEnd := b.RowPtr[i], b.RowPtr[i+1]
		for ai < aEnd && bi < bEnd {
			switch {
			case a.Col[ai] == b.Col[bi]:
				out.Col = append(out.Col, a.Col[ai])
				out.Val = append(out.Val, combine(a.Val[ai], b.Val[bi]))
				ai++
				bi++
			case a.Col[ai] < b.Col[bi]:
				out.Col = append(out.Col, a.Col[ai])
				out.Val = append(out.Val, a.Val[ai])
				ai++
			default:
				out.Col = append(out.Col, b.Col[bi])
				out.Val = append(out.Val, b.Val[bi])
				bi++
			}
		}
		for ; ai < aEnd; ai++ {
			out.Col = append(out.Col, a.Col[ai])
			out.Val = append(out.Val, a.Val[ai])
		}
		for ; bi < bEnd; bi++ {
			out.Col = append(out.Col, b.Col[bi])
			out.Val = append(out.Val, b.Val[bi])
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out
}

// EWiseMult returns the element-wise intersection of a and b: positions
// present in both inputs, combined with f. Rows must be sorted.
func EWiseMult[T, U, V any](a *CSR[T], b *CSR[U], f func(T, U) V) *CSR[V] {
	if a.NRows != b.NRows || a.NCols != b.NCols {
		panic("matrix: EWiseMult dimension mismatch")
	}
	out := &CSR[V]{NRows: a.NRows, NCols: a.NCols, RowPtr: make([]Index, a.NRows+1)}
	for i := Index(0); i < a.NRows; i++ {
		ai, aEnd := a.RowPtr[i], a.RowPtr[i+1]
		bi, bEnd := b.RowPtr[i], b.RowPtr[i+1]
		for ai < aEnd && bi < bEnd {
			switch {
			case a.Col[ai] == b.Col[bi]:
				out.Col = append(out.Col, a.Col[ai])
				out.Val = append(out.Val, f(a.Val[ai], b.Val[bi]))
				ai++
				bi++
			case a.Col[ai] < b.Col[bi]:
				ai++
			default:
				bi++
			}
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out
}

// MaskPattern returns the entries of a whose positions appear in mask
// (pattern intersection). Rows of both must be sorted.
func MaskPattern[T any](a *CSR[T], mask *Pattern) *CSR[T] {
	if a.NRows != mask.NRows || a.NCols != mask.NCols {
		panic("matrix: MaskPattern dimension mismatch")
	}
	out := &CSR[T]{NRows: a.NRows, NCols: a.NCols, RowPtr: make([]Index, a.NRows+1)}
	for i := Index(0); i < a.NRows; i++ {
		ai, aEnd := a.RowPtr[i], a.RowPtr[i+1]
		mrow := mask.Row(i)
		mi := 0
		for ai < aEnd && mi < len(mrow) {
			switch {
			case a.Col[ai] == mrow[mi]:
				out.Col = append(out.Col, a.Col[ai])
				out.Val = append(out.Val, a.Val[ai])
				ai++
				mi++
			case a.Col[ai] < mrow[mi]:
				ai++
			default:
				mi++
			}
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out
}

// Sum returns the sum of all stored float64 values.
func Sum(a *CSR[float64]) float64 {
	var s float64
	for _, v := range a.Val {
		s += v
	}
	return s
}

func mustSameDims[T any](a, b *CSR[T]) {
	if a.NRows != b.NRows || a.NCols != b.NCols {
		panic("matrix: dimension mismatch")
	}
}
