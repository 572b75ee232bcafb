package matrix

import (
	"math"
	"sort"

	"repro/internal/parallel"
)

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
	return inversePerm(degreeDescOrder(a.RowPtr))
}

// degreeDescOrder lists the vertices of the square matrix with row
// pointers rowPtr in non-increasing order of degree (row nnz), ids
// ascending within a degree: a stable counting sort, O(n + max degree).
func degreeDescOrder(rowPtr []Index) []Index {
	n := Index(max(len(rowPtr)-1, 0))
	deg := func(i Index) Index { return rowPtr[i+1] - rowPtr[i] }
	maxDeg := Index(0)
	for i := Index(0); i < n; i++ {
		maxDeg = max(maxDeg, deg(i))
	}
	// Bucket b holds degree maxDeg-b, so bucket 0 is the highest degree;
	// start[b] is where bucket b begins in the order.
	start := make([]Index, maxDeg+2)
	for i := Index(0); i < n; i++ {
		start[maxDeg-deg(i)+1]++
	}
	for b := Index(0); b <= maxDeg; b++ {
		start[b+1] += start[b]
	}
	order := make([]Index, n)
	for i := Index(0); i < n; i++ {
		b := maxDeg - deg(i)
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
// symmetric. It is the counting-sort Transpose of the Lᵀ that relabelUpper
// builds on up to workers goroutines (0 means GOMAXPROCS); the result is
// the same for every worker count. The pinned variants and the baselines
// count triangles on it; the Auto engine counts on DegreeTril instead.
func RelabelTril[T any](a *CSR[T], workers int) *CSR[T] {
	return Transpose(relabelUpper(a, relabelRanges(a.NNZ(), workers)))
}

// DegreeTril returns the pattern of a with each edge oriented toward its
// higher-degree end, in a's own labels: row i keeps the j of a(i,:) that
// DegreeDescPerm(a) numbers before i, that is those with rank(j) > rank(i)
// for rank(v) = deg(v)·2³² − v, deg being the row nnz. Rows keep a's
// column order, and self-loops are dropped; a must be square. With P the
// permutation of DegreeDescPerm and L = RelabelTril(a), the result X is
// Pᵀ·L·P entry for entry: row i, mapped through the permutation, is row
// perm[i] of L. So sum(X .* (X·X)) and flops(X·X) equal those of L for
// every square a with duplicate-free rows, symmetric or not, with no
// vertex renumbered and nothing transposed. The ids are not degree-sorted,
// which costs a count on X some locality against L.
//
// One branch-free pass over the RowSpans of a, on up to workers
// goroutines (0 means GOMAXPROCS), compacts each span's kept columns in
// place of its own entries; a serial move then closes the gaps between
// spans. The output is byte-identical for every worker count, and its Col
// is a prefix of an array of nnz(a) slots. A worker panic is re-raised on
// the caller as a parallel.WorkerPanic.
func DegreeTril[T any](a *CSR[T], workers int) *Pattern {
	x, _ := degreeTril(a.Pattern(), RowSpans(a.RowPtr, workers), workers, math.MaxInt64)
	return x
}

// degreeRank is DegreeTril's rank of vertex v of the square matrix with
// row pointers rp.
func degreeRank(rp []Index, v Index) int64 {
	return int64(rp[v+1]-rp[v])<<32 - int64(v)
}

// degreeTril builds DegreeTril's pattern of a over the row spans of bounds
// (see RowSpans) on up to workers goroutines. It also returns the kept
// entries of each row whose rank is at least hubMin.
func degreeTril(a *Pattern, bounds []Index, workers int, hubMin int64) (*Pattern, []Index) {
	n := a.NRows
	rp := a.RowPtr
	spans := len(bounds) - 1
	p := min(parallel.Threads(workers), spans)
	// DegreeDescPerm numbers u before v exactly when rank[u] > rank[v]. One
	// read of rank per entry is cheaper than two row-pointer reads and the
	// arithmetic.
	rank := make([]int64, n)
	for v := range n {
		rank[v] = degreeRank(rp, v)
	}
	hubNNZ := make([]Index, n)
	// Each span compacts its rows' kept columns into the slots of its own
	// entries of a: every column is written and kept by advancing dst, so a
	// write never passes the entry being read and never leaves the span.
	ptr := make([]Index, n+1)
	col := make([]Index, len(a.Col))
	kept := make([]Index, spans)
	parallel.ForChunks(nil, spans, p, 1, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			first := rp[bounds[s]]
			dst := first
			for i := bounds[s]; i < bounds[s+1]; i++ {
				ri := rank[i]
				start := dst
				var hubs Index
				for _, j := range a.Col[rp[i]:rp[i+1]] {
					col[dst] = j
					rj := rank[j]
					keep := b2i(rj > ri) // branch-free: close to a coin flip
					dst += keep
					hubs += keep & b2i(rj >= hubMin)
				}
				ptr[i+1] = dst - start
				hubNNZ[i] = hubs
			}
			kept[s] = dst - first
		}
	})
	for i := range n {
		ptr[i+1] += ptr[i]
	}
	// The spans move down in order; a span never lands above its own
	// slots, so copy's overlapping move keeps every later span intact.
	for s := 1; s < spans; s++ {
		from := rp[bounds[s]]
		copy(col[ptr[bounds[s]]:], col[from:from+kept[s]])
	}
	nnz := ptr[n]
	return &Pattern{NRows: n, NCols: n, RowPtr: ptr, Col: col[:nnz:nnz]}, hubNNZ
}

// RowSpans splits the rows of a matrix with row pointers rowPtr into
// contiguous spans of about equal weight for a row-parallel sweep on up to
// workers goroutines (0 means GOMAXPROCS), a row weighing its entries plus
// one. Span s is rows [bounds[s], bounds[s+1]). There are up to
// rowSpansPerWorker spans per worker, each weighing at least
// rowSpanMinWeight, and at least one. Equal-row spans would hand one
// worker most of a matrix whose entries crowd into a few rows, such as a
// skewed graph's hubs.
func RowSpans(rowPtr []Index, workers int) []Index {
	n := len(rowPtr) - 1
	total := int64(rowPtr[n]-rowPtr[0]) + int64(n)
	return rowSpans(rowPtr, int(max(1, min(int64(rowSpansPerWorker*parallel.Threads(workers)), total/rowSpanMinWeight))))
}

// A few spans per worker even out what the entry count misses, and a small
// matrix stays on one span, on the caller.
const (
	rowSpansPerWorker = 4
	rowSpanMinWeight  = 1 << 12
)

// rowSpans splits the rows of a matrix with row pointers rowPtr into
// spans contiguous spans of about equal weight, a row weighing its entries
// plus one. Spans are empty where there are more of them than rows.
func rowSpans(rowPtr []Index, spans int) []Index {
	n := len(rowPtr) - 1
	weight := func(i int) int64 { return int64(rowPtr[i]) + int64(i) }
	total := weight(n) - weight(0)
	bounds := make([]Index, spans+1)
	for s := 1; s <= spans; s++ {
		target := weight(0) + total*int64(s)/int64(spans)
		bounds[s] = Index(sort.Search(n, func(i int) bool { return weight(i) >= target }))
	}
	return bounds
}

// relabelMinRangeNNZ is the fewest entries of a that a relabel range
// covers. A smaller graph relabels on one range, on the caller's
// goroutine: the goroutine start and the extra histogram would cost more
// than the split saves.
const relabelMinRangeNNZ = 1 << 14

// relabelRanges is the number of ranges relabelUpper splits a graph with
// nnz entries into on up to workers goroutines.
func relabelRanges(nnz, workers int) int {
	return max(1, min(parallel.Threads(workers), nnz/relabelMinRangeNNZ))
}

// relabelUpper builds Lᵀ for L = Tril(Permute(a, DegreeDescPerm(a))) as a
// two-pass counting transpose over p contiguous ranges of the new labels r,
// split by nnzRanges, one range per worker. Pass 1 counts each range's
// strictly lower entries of P·A·Pᵀ per new column c into the range's own
// histogram. One O(n·p) sweep turns the histograms into RowPtr and into
// each range's first slot in every column. Pass 2 scatters each range from
// those slots. The ranges follow each other in ascending r, and each walks
// its rows in ascending r, so every row of Lᵀ comes out sorted and the
// output is byte-identical for any p. It carries a's values. A worker
// panic is re-raised on the caller as a parallel.WorkerPanic.
func relabelUpper[T any](a *CSR[T], p int) *CSR[T] {
	n := a.NRows
	order := degreeDescOrder(a.RowPtr)
	perm := inversePerm(order)
	bounds := nnzRanges(a, order, p)
	hist := make([][]Index, p)
	parallel.ForChunks(nil, p, p, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			h := make([]Index, n)
			for r := bounds[t]; r < bounds[t+1]; r++ {
				i := order[r]
				for _, j := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
					c := perm[j]
					h[c] += b2i(c < r) // branch-free: c < r is close to a coin flip
				}
			}
			hist[t] = h
		}
	})
	// hist[t][c] becomes the slot of range t's first entry in column c.
	ptr := make([]Index, n+1)
	for c := range n {
		pos := ptr[c]
		for _, h := range hist {
			h[c], pos = pos, pos+h[c]
		}
		ptr[c+1] = pos
	}
	// Pass 2 writes an entry that is not strictly lower to its range's own
	// sink slot past the end instead of branching on c < r, which is close
	// to a coin flip. The sinks sit a cache line apart.
	const sinkStride = 16
	nnz := ptr[n]
	row := make([]Index, int(nnz)+sinkStride*p)
	val := make([]T, len(row))
	parallel.ForChunks(nil, p, p, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			next := hist[t]
			sink := nnz + Index(sinkStride*t)
			for r := bounds[t]; r < bounds[t+1]; r++ {
				i := order[r]
				first := a.RowPtr[i]
				for k, j := range a.Col[first:a.RowPtr[i+1]] {
					c := perm[j]
					lt := b2i(c < r)
					dst := sink ^ ((next[c] ^ sink) & -lt) // next[c] if c < r, else sink
					row[dst] = r
					val[dst] = a.Val[int(first)+k]
					next[c] += lt
				}
			}
		}
	})
	return &CSR[T]{NRows: n, NCols: n, RowPtr: ptr, Col: row[:nnz:nnz], Val: val[:nnz:nnz]}
}

// nnzRanges splits the new labels [0, n) into p contiguous ranges of about
// equal weight, a row weighing its entries plus one. Splitting by rows
// instead would put most entries on the first range, because
// degreeDescOrder puts the hubs first. Range t is [bounds[t], bounds[t+1]);
// ranges are empty where p exceeds the rows.
func nnzRanges[T any](a *CSR[T], order []Index, p int) []Index {
	n := Index(len(order))
	bounds := make([]Index, p+1)
	bounds[p] = n
	if p == 1 {
		return bounds
	}
	total := int64(a.NNZ()) + int64(n)
	var acc int64
	t := 1
	for r, i := range order {
		for t < p && acc >= total*int64(t)/int64(p) {
			bounds[t] = Index(r)
			t++
		}
		acc += int64(a.RowNNZ(i)) + 1
	}
	for ; t < p; t++ {
		bounds[t] = n
	}
	return bounds
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
