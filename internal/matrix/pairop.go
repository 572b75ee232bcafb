package matrix

import "repro/internal/parallel"

// PairOperand is what a triangle count of a graph g walks in g's own
// labels: X = DegreeTril(g), and W, which lists every edge of X once, at
// the endpoint whose X row is longer. sum(X .* (W·X)) adds
// |X(r,:) ∩ X(k,:)| once for every edge between r and k, as
// sum(X .* (X·X)) does for the edge i→k, so the two are the same count.
// A count over W marks the longer of the two X rows and walks the
// shorter, so it reads Σ over the edges of min(nnz(X(i,:)), nnz(X(k,:)))
// entries of X where one over X reads Σ_k indeg(k)·nnz(X(k,:)): the edge
// iterator of the triangle-listing literature (Schank and Wagner, WEA
// 2005).
//
// A PairOperand is immutable once built.
type PairOperand struct {
	// X is DegreeTril(g).
	X *Pattern
	// W holds each edge i→k of X exactly once: in row i when X(i,:) is
	// longer than X(k,:), in row k otherwise, a tie going to the lower
	// vertex id. Row r lists first the k of X(r,:) it keeps, in X's
	// order, then the i whose X row lists r, ascending.
	W *Pattern
	// CostPrefix is the row-cost prefix of the count sum(X .* (W·X)),
	// length n+1: row r costs Σ_{k ∈ W(r,:)} nnz(X(k,:)) + nnz(X(r,:)) +
	// 1, the cost_i = flops_i + nnz(M_i*) + 1 of core.RowCosts, so the
	// costs total flops(W·X) + nnz(X) + n.
	CostPrefix []int64
	// MaxRowCost is the largest row cost.
	MaxRowCost int64
	// Flops is flops(X·X) = Σ over the edges i→k of X of nnz(X(k,:)), the
	// flops of the relabeled L·L, which X is in g's labels.
	Flops int64
}

// Bytes returns the bytes of the operand's arrays.
func (p *PairOperand) Bytes() int64 {
	idx := len(p.X.RowPtr) + len(p.X.Col) + len(p.W.RowPtr) + len(p.W.Col)
	return 4*int64(idx) + 8*int64(len(p.CostPrefix))
}

// NewPairOperand builds the triangle-count operand of the square graph g
// (see PairOperand) on up to workers goroutines (0 means GOMAXPROCS). g's
// rows must be duplicate-free; they need not be sorted, and g need not be
// symmetric: W is built from X, not from g's other half. The output is
// byte-identical for every worker count. A worker panic is re-raised on
// the caller as a parallel.WorkerPanic.
func NewPairOperand(g *Pattern, workers int) *PairOperand {
	x := degreeTril(g, RowSpans(g.RowPtr, workers), workers)
	return pairOperand(x, rowSpans(x.RowPtr, relabelRanges(x.NNZ(), workers)))
}

// pairOperand builds W, the cost prefix and the flops from X over the
// contiguous row ranges of bounds, one range per worker, as a two-pass
// scatter like relabelUpper's. Pass 1 counts each row's kept out-part,
// its cost and the flops, and into the range's own histograms each
// column's in-part entries and their cost. One O(n·p) sweep turns these
// into RowPtr, the cost prefix and each range's first slot in every
// row's in-part. Pass 2 writes each row's out-part and scatters its
// in-part entries from those slots. The ranges follow each other in
// ascending rows and each walks its rows in ascending order, so every
// in-part comes out ascending and the output is byte-identical for any
// split.
func pairOperand(x *Pattern, bounds []Index) *PairOperand {
	n := x.NRows
	rp := x.RowPtr
	p := len(bounds) - 1
	// key[v] is nnz(X(v,:)) in the high word and ^v in the low one, so
	// the endpoint with the larger key has the longer row, or the lower
	// id on a tie, and key >> 32 is the row length.
	key := make([]int64, n)
	for v := range n {
		key[v] = int64(rp[v+1]-rp[v])<<32 | int64(^uint32(v))
	}
	outNNZ := make([]Index, n) // the out-part's length
	outCost := make([]int64, n)
	inNNZ := make([][]Index, p) // per range: in-part entries per row
	inCost := make([][]int64, p)
	flops := make([]int64, p)
	parallel.ForChunks(nil, p, p, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			inNNZ[t], inCost[t] = make([]Index, n), make([]int64, n)
			flops[t] = pairSplit(x, key, bounds[t], bounds[t+1], outNNZ, outCost, inNNZ[t], inCost[t])
		}
	})
	// inNNZ[t][r] becomes the slot of range t's first entry in row r's
	// in-part.
	ptr := make([]Index, n+1)
	prefix := make([]int64, n+1)
	var maxCost int64
	for r := range n {
		pos := ptr[r] + outNNZ[r]
		c := outCost[r] + key[r]>>32 + 1
		for t := range p {
			inNNZ[t][r], pos = pos, pos+inNNZ[t][r]
			c += inCost[t][r]
		}
		ptr[r+1] = pos
		prefix[r+1] = prefix[r] + c
		maxCost = max(maxCost, c)
	}
	// Pass 2 writes each entry twice, once where it belongs and once to
	// its range's own sink slot past the end, instead of branching on the
	// side it goes to. The sinks sit a cache line apart.
	const sinkStride = 16
	nnz := ptr[n]
	col := make([]Index, int(nnz)+sinkStride*p)
	parallel.ForChunks(nil, p, p, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			pairScatter(x, key, bounds[t], bounds[t+1], ptr, inNNZ[t], col, nnz+Index(sinkStride*t))
		}
	})
	var total int64
	for _, f := range flops {
		total += f
	}
	return &PairOperand{
		X:          x,
		W:          &Pattern{NRows: n, NCols: n, RowPtr: ptr, Col: col[:nnz:nnz]},
		CostPrefix: prefix,
		MaxRowCost: maxCost,
		Flops:      total,
	}
}

// pairSplit is pass 1 of pairOperand over X's rows [lo, hi): it sets
// each row's out-part length and cost, adds each in-part entry to its
// row's count and cost in the range's histograms cnt and cost, and
// returns the range's share of flops(X·X).
func pairSplit(x *Pattern, key []int64, lo, hi Index, outNNZ []Index, outCost []int64, cnt []Index, cost []int64) int64 {
	rp, xc := x.RowPtr, x.Col
	var flops int64
	for i := lo; i < hi; i++ {
		ki := key[i]
		oi := ki >> 32
		var kept Index
		var c int64
		for _, k := range xc[rp[i]:rp[i+1]] {
			kk := key[k]
			in := b2i(kk > ki) // branch-free: close to a coin flip
			ok := kk >> 32
			kept += 1 - in
			c += ok &^ -int64(in)
			cnt[k] += in
			cost[k] += oi & -int64(in)
			flops += ok
		}
		outNNZ[i], outCost[i] = kept, c
	}
	return flops
}

// pairScatter is pass 2 of pairOperand over X's rows [lo, hi): it writes
// each row's out-part from ptr and scatters each in-part entry to its
// row's slot in next, writing the other copy of every entry to sink.
func pairScatter(x *Pattern, key []int64, lo, hi Index, ptr, next, col []Index, sink Index) {
	rp, xc := x.RowPtr, x.Col
	for i := lo; i < hi; i++ {
		ki := key[i]
		dst := ptr[i]
		for _, k := range xc[rp[i]:rp[i+1]] {
			in := b2i(key[k] > ki)
			col[sink^((dst^sink)&(in-1))] = k // dst if i keeps the edge, else sink
			dst += 1 - in
			col[sink^((next[k]^sink)&-in)] = i // next[k] if k takes it, else sink
			next[k] += in
		}
	}
}
