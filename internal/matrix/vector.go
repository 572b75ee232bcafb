package matrix

// Sparse vectors. The paper develops its algorithms as Masked SpGEVM —
// sparse row-vector times sparse matrix, v = m .* (uᵀB) — and lifts them to
// SpGEMM row by row (§5). This file provides the standalone vector type so
// the SpGEVM primitive is usable directly (frontier-based traversals,
// direction-optimized BFS).

// SparseVec is a sparse vector of logical length N with sorted,
// duplicate-free indices.
type SparseVec[T any] struct {
	N   Index
	Idx []Index
	Val []T
}

// NNZ returns the number of stored entries.
func (v *SparseVec[T]) NNZ() int { return len(v.Idx) }

// Clone returns a deep copy.
func (v *SparseVec[T]) Clone() *SparseVec[T] {
	return &SparseVec[T]{
		N:   v.N,
		Idx: append([]Index(nil), v.Idx...),
		Val: append([]T(nil), v.Val...),
	}
}

// AsRowMatrix views v as a 1-by-N CSR matrix sharing storage (no copy).
func (v *SparseVec[T]) AsRowMatrix() *CSR[T] {
	return &CSR[T]{
		NRows:  1,
		NCols:  v.N,
		RowPtr: []Index{0, Index(len(v.Idx))},
		Col:    v.Idx,
		Val:    v.Val,
	}
}

// RowToVec extracts row i of a as a sparse vector sharing storage.
func RowToVec[T any](a *CSR[T], i Index) *SparseVec[T] {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return &SparseVec[T]{N: a.NCols, Idx: a.Col[lo:hi], Val: a.Val[lo:hi]}
}

// VecPattern returns the index set of v as a 1-row Pattern view.
func (v *SparseVec[T]) VecPattern() *Pattern {
	return &Pattern{
		NRows:  1,
		NCols:  v.N,
		RowPtr: []Index{0, Index(len(v.Idx))},
		Col:    v.Idx,
	}
}

// EWiseAddVec merges two sparse vectors, combining values where both have
// entries.
func EWiseAddVec[T any](a, b *SparseVec[T], combine func(T, T) T) *SparseVec[T] {
	if a.N != b.N {
		panic("matrix: EWiseAddVec dimension mismatch")
	}
	out := &SparseVec[T]{N: a.N}
	ai, bi := 0, 0
	for ai < len(a.Idx) && bi < len(b.Idx) {
		switch {
		case a.Idx[ai] == b.Idx[bi]:
			out.Idx = append(out.Idx, a.Idx[ai])
			out.Val = append(out.Val, combine(a.Val[ai], b.Val[bi]))
			ai++
			bi++
		case a.Idx[ai] < b.Idx[bi]:
			out.Idx = append(out.Idx, a.Idx[ai])
			out.Val = append(out.Val, a.Val[ai])
			ai++
		default:
			out.Idx = append(out.Idx, b.Idx[bi])
			out.Val = append(out.Val, b.Val[bi])
			bi++
		}
	}
	out.Idx = append(out.Idx, a.Idx[ai:]...)
	out.Val = append(out.Val, a.Val[ai:]...)
	out.Idx = append(out.Idx, b.Idx[bi:]...)
	out.Val = append(out.Val, b.Val[bi:]...)
	return out
}

// VecEqual reports element-wise equality of two sparse vectors.
func VecEqual[T any](a, b *SparseVec[T], eq func(T, T) bool) bool {
	if a.N != b.N || len(a.Idx) != len(b.Idx) {
		return false
	}
	for k := range a.Idx {
		if a.Idx[k] != b.Idx[k] || !eq(a.Val[k], b.Val[k]) {
			return false
		}
	}
	return true
}
