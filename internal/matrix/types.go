// Package matrix implements the sparse matrix substrate used throughout the
// repository: CSR, CSC and COO (triplet) storage with generic value types,
// plus the structural operations the masked SpGEMM kernels and graph
// applications need (transpose, row sorting, triangular extraction, degree
// relabeling, pattern views).
//
// The paper (§2.1) uses CSR for the inputs, the mask and the output, and CSC
// only for the pull-based inner-product algorithm; this package mirrors that
// choice. Indices are 32-bit (type Index) for cache compactness: the paper's
// memory-traffic analysis assumes index and value words are comparable in
// size, and 32-bit indices keep accumulator state dense.
package matrix

import (
	"fmt"
	"sort"
)

// Index is the integer type for row/column indices and CSR offsets. Matrices
// are limited to 2^31-1 rows, columns and nonzeros, which is ample for the
// laptop-scale reproduction (the paper's largest input has 1e8 nonzeros).
type Index = int32

// CSR is a sparse matrix in Compressed Sparse Row format. Row i occupies
// positions RowPtr[i]..RowPtr[i+1] of Col and Val. Within a row, column
// indices may be sorted or unsorted; kernels that require sorted rows
// (Heap, MCA, Inner) document it and SortRows establishes the invariant.
type CSR[T any] struct {
	NRows, NCols Index
	RowPtr       []Index // length NRows+1
	Col          []Index // length nnz
	Val          []T     // length nnz
}

// CSC is a sparse matrix in Compressed Sparse Column format, the mirror of
// CSR. Used by the pull-based Inner algorithm for the B operand (§4.1).
type CSC[T any] struct {
	NRows, NCols Index
	ColPtr       []Index // length NCols+1
	Row          []Index // length nnz
	Val          []T     // length nnz
}

// COO is a sparse matrix in coordinate (triplet) format, used as a staging
// format by the generators and the Matrix Market reader. Duplicate entries
// are permitted until NewCSRFromCOO collapses them.
type COO[T any] struct {
	NRows, NCols Index
	Row, Col     []Index
	Val          []T
}

// Pattern is the structure-only view of a sparse matrix: a CSR matrix
// without values. Masks are patterns — the paper notes (§2) that only the
// pattern of the mask is used, never its values.
type Pattern struct {
	NRows, NCols Index
	RowPtr       []Index
	Col          []Index
}

// NNZ returns the number of stored entries.
func (a *CSR[T]) NNZ() int { return len(a.Col) }

// NNZ returns the number of stored entries.
func (a *CSC[T]) NNZ() int { return len(a.Row) }

// NNZ returns the number of stored entries.
func (a *COO[T]) NNZ() int { return len(a.Row) }

// NNZ returns the number of stored entries.
func (p *Pattern) NNZ() int { return len(p.Col) }

// RowNNZ returns the number of stored entries in row i.
func (a *CSR[T]) RowNNZ(i Index) Index { return a.RowPtr[i+1] - a.RowPtr[i] }

// RowNNZ returns the number of stored entries in row i.
func (p *Pattern) RowNNZ(i Index) Index { return p.RowPtr[i+1] - p.RowPtr[i] }

// Row returns the column indices and values of row i as sub-slices backed by
// the matrix storage; callers must not grow them.
func (a *CSR[T]) Row(i Index) ([]Index, []T) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.Col[lo:hi], a.Val[lo:hi]
}

// Row returns the column indices of mask row i.
func (p *Pattern) Row(i Index) []Index {
	return p.Col[p.RowPtr[i]:p.RowPtr[i+1]]
}

// Column returns the row indices and values of column j.
func (a *CSC[T]) Column(j Index) ([]Index, []T) {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	return a.Row[lo:hi], a.Val[lo:hi]
}

// Pattern returns the structure-only view of a. The returned Pattern shares
// RowPtr and Col with a; it is a view, not a copy.
func (a *CSR[T]) Pattern() *Pattern {
	return &Pattern{NRows: a.NRows, NCols: a.NCols, RowPtr: a.RowPtr, Col: a.Col}
}

// Clone returns a deep copy of a.
func (a *CSR[T]) Clone() *CSR[T] {
	b := &CSR[T]{
		NRows:  a.NRows,
		NCols:  a.NCols,
		RowPtr: append([]Index(nil), a.RowPtr...),
		Col:    append([]Index(nil), a.Col...),
		Val:    append([]T(nil), a.Val...),
	}
	return b
}

// Clone returns a deep copy of p.
func (p *Pattern) Clone() *Pattern {
	return &Pattern{
		NRows:  p.NRows,
		NCols:  p.NCols,
		RowPtr: append([]Index(nil), p.RowPtr...),
		Col:    append([]Index(nil), p.Col...),
	}
}

// NewEmptyCSR returns an m-by-n CSR matrix with no entries.
func NewEmptyCSR[T any](m, n Index) *CSR[T] {
	return &CSR[T]{NRows: m, NCols: n, RowPtr: make([]Index, m+1)}
}

// Validate checks the CSR invariants: monotone row pointers, in-range column
// indices, and consistent array lengths. It reports the first violation.
func (a *CSR[T]) Validate() error {
	if a.NRows < 0 || a.NCols < 0 {
		return fmt.Errorf("matrix: negative dimension %dx%d", a.NRows, a.NCols)
	}
	if len(a.RowPtr) != int(a.NRows)+1 {
		return fmt.Errorf("matrix: RowPtr length %d, want %d", len(a.RowPtr), a.NRows+1)
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("matrix: RowPtr[0] = %d, want 0", a.RowPtr[0])
	}
	for i := Index(0); i < a.NRows; i++ {
		if a.RowPtr[i+1] < a.RowPtr[i] {
			return fmt.Errorf("matrix: RowPtr not monotone at row %d", i)
		}
	}
	nnz := int(a.RowPtr[a.NRows])
	if len(a.Col) != nnz || len(a.Val) != nnz {
		return fmt.Errorf("matrix: nnz mismatch: RowPtr says %d, len(Col)=%d len(Val)=%d",
			nnz, len(a.Col), len(a.Val))
	}
	for k, j := range a.Col {
		if j < 0 || j >= a.NCols {
			return fmt.Errorf("matrix: column index %d out of range at position %d", j, k)
		}
	}
	return nil
}

// Validate checks the Pattern invariants (same rules as CSR without values).
func (p *Pattern) Validate() error {
	if len(p.RowPtr) != int(p.NRows)+1 {
		return fmt.Errorf("matrix: RowPtr length %d, want %d", len(p.RowPtr), p.NRows+1)
	}
	if p.RowPtr[0] != 0 {
		return fmt.Errorf("matrix: RowPtr[0] = %d, want 0", p.RowPtr[0])
	}
	for i := Index(0); i < p.NRows; i++ {
		if p.RowPtr[i+1] < p.RowPtr[i] {
			return fmt.Errorf("matrix: RowPtr not monotone at row %d", i)
		}
	}
	if len(p.Col) != int(p.RowPtr[p.NRows]) {
		return fmt.Errorf("matrix: nnz mismatch: RowPtr says %d, len(Col)=%d",
			p.RowPtr[p.NRows], len(p.Col))
	}
	for k, j := range p.Col {
		if j < 0 || j >= p.NCols {
			return fmt.Errorf("matrix: column index %d out of range at position %d", j, k)
		}
	}
	return nil
}

// IsSortedRows reports whether every row's column indices are strictly
// increasing (sorted and duplicate-free).
func (a *CSR[T]) IsSortedRows() bool { return a.Pattern().IsSortedRows() }

// IsSortedRows reports whether every mask row is strictly increasing
// (sorted and duplicate-free). Degenerate zero-value patterns (no RowPtr)
// report true: they have no row data to violate it.
func (p *Pattern) IsSortedRows() bool { return p.SortedRowsIn(0, p.NRows) }

// SortedRowsIn is IsSortedRows over the rows [lo, hi) only, so callers
// can split the check across workers. Degenerate zero-value patterns
// report true, as for IsSortedRows.
func (p *Pattern) SortedRowsIn(lo, hi Index) bool {
	if int(p.NRows) >= len(p.RowPtr) {
		return true
	}
	for i := lo; i < hi; i++ {
		cols := p.Col[p.RowPtr[i]:p.RowPtr[i+1]]
		for k := 1; k < len(cols); k++ {
			if cols[k-1] >= cols[k] {
				return false
			}
		}
	}
	return true
}

// SortRows sorts the column indices (and matching values) within each row in
// increasing order. Rows are assumed duplicate-free (the CSR builders
// guarantee this). Sorting is done row-by-row with insertion sort for short
// rows and sort.Sort otherwise.
func (a *CSR[T]) SortRows() {
	for i := Index(0); i < a.NRows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		sortRowSegment(a.Col[lo:hi], a.Val[lo:hi])
	}
}

const insertionSortThreshold = 24

func sortRowSegment[T any](cols []Index, vals []T) {
	if len(cols) < 2 {
		return
	}
	if len(cols) <= insertionSortThreshold {
		for k := 1; k < len(cols); k++ {
			c, v := cols[k], vals[k]
			j := k - 1
			for j >= 0 && cols[j] > c {
				cols[j+1], vals[j+1] = cols[j], vals[j]
				j--
			}
			cols[j+1], vals[j+1] = c, v
		}
		return
	}
	sort.Sort(&rowSorter[T]{cols: cols, vals: vals})
}

type rowSorter[T any] struct {
	cols []Index
	vals []T
}

func (s *rowSorter[T]) Len() int           { return len(s.cols) }
func (s *rowSorter[T]) Less(i, j int) bool { return s.cols[i] < s.cols[j] }
func (s *rowSorter[T]) Swap(i, j int) {
	s.cols[i], s.cols[j] = s.cols[j], s.cols[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}
