package matrix

// Builders and format conversions: COO→CSR with duplicate folding, CSR↔CSC,
// transpose, and construction from dense row data (for tests).

// NewCSRFromCOO builds a CSR matrix from triplets, summing duplicates with
// combine (if combine is nil, later entries overwrite earlier ones). Rows of
// the result are sorted by column index. The input slices are not modified.
func NewCSRFromCOO[T any](c *COO[T], combine func(T, T) T) *CSR[T] {
	m, n := c.NRows, c.NCols
	nnzIn := len(c.Row)
	// Counting sort by row.
	counts := make([]Index, m+1)
	for _, r := range c.Row {
		counts[r+1]++
	}
	for i := Index(0); i < m; i++ {
		counts[i+1] += counts[i]
	}
	rowptr := counts // counts is now the row pointer array of the row-bucketed copy
	colTmp := make([]Index, nnzIn)
	valTmp := make([]T, nnzIn)
	fill := make([]Index, m)
	for k := 0; k < nnzIn; k++ {
		r := c.Row[k]
		pos := rowptr[r] + fill[r]
		fill[r]++
		colTmp[pos] = c.Col[k]
		valTmp[pos] = c.Val[k]
	}
	// Sort each row, then fold duplicates.
	for i := Index(0); i < m; i++ {
		sortRowSegment(colTmp[rowptr[i]:rowptr[i+1]], valTmp[rowptr[i]:rowptr[i+1]])
	}
	outPtr := make([]Index, m+1)
	outCol := make([]Index, 0, nnzIn)
	outVal := make([]T, 0, nnzIn)
	for i := Index(0); i < m; i++ {
		lo, hi := rowptr[i], rowptr[i+1]
		for k := lo; k < hi; {
			j := colTmp[k]
			v := valTmp[k]
			k++
			for k < hi && colTmp[k] == j {
				if combine != nil {
					v = combine(v, valTmp[k])
				} else {
					v = valTmp[k]
				}
				k++
			}
			outCol = append(outCol, j)
			outVal = append(outVal, v)
		}
		outPtr[i+1] = Index(len(outCol))
	}
	return &CSR[T]{NRows: m, NCols: n, RowPtr: outPtr, Col: outCol, Val: outVal}
}

// Transpose returns Aᵀ as a new CSR matrix with sorted rows (a counting-sort
// transpose: O(nnz + n)).
func Transpose[T any](a *CSR[T]) *CSR[T] {
	m, n := a.NRows, a.NCols
	nnz := a.NNZ()
	ptr := make([]Index, n+1)
	for _, j := range a.Col {
		ptr[j+1]++
	}
	for j := Index(0); j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	col := make([]Index, nnz)
	val := make([]T, nnz)
	fill := make([]Index, n)
	for i := Index(0); i < m; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.Col[k]
			pos := ptr[j] + fill[j]
			fill[j]++
			col[pos] = i
			val[pos] = a.Val[k]
		}
	}
	return &CSR[T]{NRows: n, NCols: m, RowPtr: ptr, Col: col, Val: val}
}

// ToCSC converts a CSR matrix to CSC. Column segments list row indices in
// increasing order. The conversion is the same counting sort as Transpose.
func ToCSC[T any](a *CSR[T]) *CSC[T] {
	t := Transpose(a)
	return &CSC[T]{NRows: a.NRows, NCols: a.NCols, ColPtr: t.RowPtr, Row: t.Col, Val: t.Val}
}

// FromCSC converts a CSC matrix back to CSR with sorted rows.
func FromCSC[T any](a *CSC[T]) *CSR[T] {
	// A CSC of A has the same layout as a CSR of Aᵀ; transpose that.
	tr := &CSR[T]{NRows: a.NCols, NCols: a.NRows, RowPtr: a.ColPtr, Col: a.Row, Val: a.Val}
	return Transpose(tr)
}

// TransposePattern returns the transpose of a pattern.
func TransposePattern(p *Pattern) *Pattern {
	m, n := p.NRows, p.NCols
	nnz := p.NNZ()
	ptr := make([]Index, n+1)
	for _, j := range p.Col {
		ptr[j+1]++
	}
	for j := Index(0); j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	col := make([]Index, nnz)
	fill := make([]Index, n)
	for i := Index(0); i < m; i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			j := p.Col[k]
			pos := ptr[j] + fill[j]
			fill[j]++
			col[pos] = i
		}
	}
	return &Pattern{NRows: n, NCols: m, RowPtr: ptr, Col: col}
}

// Tril returns the strictly lower triangular part of a (entries with
// column < row), preserving row order. Used by triangle counting, which
// computes sum(L .* (L·L)) after degree relabeling (§8.2).
func Tril[T any](a *CSR[T]) *CSR[T] { return strictTriangle(a, true) }

// Triu returns the strictly upper triangular part of a (column > row).
func Triu[T any](a *CSR[T]) *CSR[T] { return strictTriangle(a, false) }

// strictTriangle keeps the entries strictly below (lower) or strictly above
// the diagonal. A count pass sizes Col and Val exactly; a second pass fills
// them.
func strictTriangle[T any](a *CSR[T], lower bool) *CSR[T] {
	keep := func(i, j Index) bool { return j != i && (j < i) == lower }
	ptr := make([]Index, a.NRows+1)
	for i := Index(0); i < a.NRows; i++ {
		ptr[i+1] = ptr[i]
		for _, j := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
			if keep(i, j) {
				ptr[i+1]++
			}
		}
	}
	col := make([]Index, ptr[a.NRows])
	val := make([]T, ptr[a.NRows])
	dst := 0
	for i := Index(0); i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if keep(i, a.Col[k]) {
				col[dst], val[dst] = a.Col[k], a.Val[k]
				dst++
			}
		}
	}
	return &CSR[T]{NRows: a.NRows, NCols: a.NCols, RowPtr: ptr, Col: col, Val: val}
}

// Permute returns P·A·Pᵀ for the permutation perm, i.e. the matrix with
// rows and columns relabeled so that old vertex v becomes perm[v]. Rows of
// the result are sorted. perm must be a bijection on [0, NRows); the matrix
// must be square.
func Permute[T any](a *CSR[T], perm []Index) *CSR[T] {
	n := a.NRows
	nnz := a.NNZ()
	ptr := make([]Index, n+1)
	for i := Index(0); i < n; i++ {
		ptr[perm[i]+1] = a.RowPtr[i+1] - a.RowPtr[i]
	}
	for i := Index(0); i < n; i++ {
		ptr[i+1] += ptr[i]
	}
	col := make([]Index, nnz)
	val := make([]T, nnz)
	for i := Index(0); i < n; i++ {
		dst := ptr[perm[i]]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			col[dst] = perm[a.Col[k]]
			val[dst] = a.Val[k]
			dst++
		}
	}
	out := &CSR[T]{NRows: n, NCols: n, RowPtr: ptr, Col: col, Val: val}
	out.SortRows()
	return out
}

// DegreeDescPerm returns a permutation that relabels vertices in
// non-increasing order of degree (row nnz), breaking ties by original id.
// Triangle counting uses this relabeling for optimal performance (§8.2).
func DegreeDescPerm[T any](a *CSR[T]) []Index {
	return inversePerm(degreeDescOrder(a))
}

// degreeDescOrder lists the vertices of a in non-increasing order of degree
// (row nnz), ids ascending within a degree: a stable counting sort, O(n +
// max degree).
func degreeDescOrder[T any](a *CSR[T]) []Index {
	n := a.NRows
	maxDeg := Index(0)
	for i := Index(0); i < n; i++ {
		maxDeg = max(maxDeg, a.RowNNZ(i))
	}
	// Bucket b holds degree maxDeg-b, so bucket 0 is the highest degree;
	// start[b] is where bucket b begins in the order.
	start := make([]Index, maxDeg+2)
	for i := Index(0); i < n; i++ {
		start[maxDeg-a.RowNNZ(i)+1]++
	}
	for b := Index(0); b <= maxDeg; b++ {
		start[b+1] += start[b]
	}
	order := make([]Index, n)
	for i := Index(0); i < n; i++ {
		b := maxDeg - a.RowNNZ(i)
		order[start[b]] = i
		start[b]++
	}
	return order
}

// inversePerm maps each entry of order to its position: the new label of
// old vertex order[k] is k.
func inversePerm(order []Index) []Index {
	perm := make([]Index, len(order))
	for newID, oldID := range order {
		perm[oldID] = Index(newID)
	}
	return perm
}

// RelabelTril returns Tril(Permute(a, DegreeDescPerm(a))), the operand L of
// triangle counting (§8.2), identical in RowPtr, Col and Val, without
// building the permuted copy or sorting any row. a must be square with
// duplicate-free rows; its rows need not be sorted, and it need not be
// symmetric. It is the counting-sort Transpose of the valued Lᵀ that
// relabelUpper builds.
func RelabelTril[T any](a *CSR[T]) *CSR[T] {
	return Transpose(relabelUpper(a, true))
}

// RelabelTriu returns the pattern of U = Lᵀ for the L of RelabelTril: the
// strictly upper triangle of the relabeled graph, with sorted rows and no
// values. Triangle counting can run on U instead of L, because
// sum(U .* (U·U)) = sum((L .* (L·L))ᵀ) and flops(U·U) = flops(L·L); U skips
// RelabelTril's final Transpose and its value array. U's rows are long for
// high-degree vertices, where L's stay short, so the paper's kernels run
// slower on U than on L; only a count that never builds the product gains.
// a has the same requirements as for RelabelTril.
func RelabelTriu[T any](a *CSR[T]) *Pattern {
	return relabelUpper(a, false).Pattern()
}

// relabelUpper builds Lᵀ for L = Tril(Permute(a, DegreeDescPerm(a))) in two
// counting passes: one counts the strictly lower entries of P·A·Pᵀ per new
// column, the other scatters them while walking the new rows in ascending
// order, so each row of Lᵀ comes out sorted. It copies a's values only
// when withVal is set; Val is nil otherwise.
func relabelUpper[T any](a *CSR[T], withVal bool) *CSR[T] {
	n := a.NRows
	order := degreeDescOrder(a)
	perm := inversePerm(order)
	ptr := make([]Index, n+1)
	for i := Index(0); i < n; i++ {
		r := perm[i]
		for _, j := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
			c := perm[j]
			ptr[c+1] += b2i(c < r) // branch-free: c < r is close to a coin flip
		}
	}
	for c := Index(0); c < n; c++ {
		ptr[c+1] += ptr[c]
	}
	next := append([]Index(nil), ptr[:n]...)
	row := make([]Index, ptr[n])
	var val []T
	if withVal {
		val = make([]T, ptr[n])
	}
	for r, i := range order {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if c := perm[a.Col[k]]; c < Index(r) {
				row[next[c]] = Index(r)
				if withVal {
					val[next[c]] = a.Val[k]
				}
				next[c]++
			}
		}
	}
	return &CSR[T]{NRows: n, NCols: n, RowPtr: ptr, Col: row, Val: val}
}

// b2i is 1 for true and 0 for false; the compiler emits it without a
// branch.
func b2i(b bool) Index {
	if b {
		return 1
	}
	return 0
}

// MapValues returns a copy of a with every stored value transformed by f.
// The pattern is shared behavior-wise but copied to keep matrices immutable.
func MapValues[T, U any](a *CSR[T], f func(T) U) *CSR[U] {
	out := &CSR[U]{
		NRows:  a.NRows,
		NCols:  a.NCols,
		RowPtr: append([]Index(nil), a.RowPtr...),
		Col:    append([]Index(nil), a.Col...),
		Val:    make([]U, len(a.Val)),
	}
	for k, v := range a.Val {
		out.Val[k] = f(v)
	}
	return out
}

// Spones returns a copy of a with every stored value replaced by one.
func Spones(a *CSR[float64]) *CSR[float64] {
	return MapValues(a, func(float64) float64 { return 1 })
}

// FromPattern materializes a CSR matrix from a pattern with all values set
// to v.
func FromPattern[T any](p *Pattern, v T) *CSR[T] {
	out := &CSR[T]{
		NRows:  p.NRows,
		NCols:  p.NCols,
		RowPtr: append([]Index(nil), p.RowPtr...),
		Col:    append([]Index(nil), p.Col...),
		Val:    make([]T, len(p.Col)),
	}
	for k := range out.Val {
		out.Val[k] = v
	}
	return out
}

// FilterEntries returns the matrix containing only entries for which
// keep(i, j, v) is true.
func FilterEntries[T any](a *CSR[T], keep func(i, j Index, v T) bool) *CSR[T] {
	out := &CSR[T]{NRows: a.NRows, NCols: a.NCols, RowPtr: make([]Index, a.NRows+1)}
	for i := Index(0); i < a.NRows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if keep(i, a.Col[k], a.Val[k]) {
				out.Col = append(out.Col, a.Col[k])
				out.Val = append(out.Val, a.Val[k])
			}
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out
}
