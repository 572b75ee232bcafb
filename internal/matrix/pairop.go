package matrix

import (
	"math"

	"repro/internal/parallel"
)

// PairOperand is what a triangle count of a graph g reads in g's own
// labels. Its edges are those of X = DegreeTril(g), and W lists every
// edge of X once, at the endpoint whose X row is longer.
// sum(X .* (W·X)) adds |X(r,:) ∩ X(k,:)| once for every edge between r
// and k, as sum(X .* (X·X)) does for the edge i→k, so the two are the
// same count. A count over W marks the longer of the two X rows and walks
// the shorter, so it reads Σ over the edges of min(nnz(X(i,:)),
// nnz(X(k,:))) entries of X where one over X reads Σ_k
// indeg(k)·nnz(X(k,:)): the edge iterator of the triangle-listing
// literature (Schank and Wagner, WEA 2005).
//
// On a skewed graph most of the entries those walks read are edges to a
// few hubs. So the operand may split every row of X in two: a
// fixed-width bitmap over the hubs H, the Hubs = min(512, n) vertices
// DegreeTril ranks highest (the first of DegreeDescPerm's order), and
// the tail, the row's entries outside H. The count of an edge (r, k) of
// W is then popcount(bits(r) & bits(k)) plus the entries of Tail(k,:)
// that Tail(r,:) marks. Hub and tail entries are disjoint, so that is
// |X(r,:) ∩ X(k,:)| exactly. Counting over hub bitmaps is the standard
// remedy for skew in exact triangle counting (Bisson and Fatica, IEEE
// TPDS 2017). A hub's X row holds only vertices ranked above it, all
// hubs, so its tail is empty. The build keeps the bits only when the hub
// entries of the walked rows, Σ_{(r,k) ∈ W} nnz(X(k,:) ∩ H), outnumber
// the Words() × nnz(W) words the bitmaps would read instead. Otherwise
// Hubs is 0, Bits is nil and Tail is X.
//
// Most tails are empty, so each W row lists first the edges whose
// Tail(k,:) is not empty, the only ones whose walk can find anything,
// and WalkEnd says where they end. A count walks those edges of the rows
// whose own tail is not empty, and ANDs the bitmaps of every edge.
//
// A PairOperand is immutable once built.
type PairOperand struct {
	// Hubs is the number of hubs the bits cover, 0 when the operand
	// carries no bits.
	Hubs int
	// Bits holds Words() words per row, row v's at
	// Bits[v·Words() : (v+1)·Words()]: bit b%64 of word b/64 is set when
	// X(v,:) holds the hub of rank b, the vertex DegreeDescPerm numbers b.
	// It is nil when Hubs is 0.
	Bits []uint64
	// Tail holds each row of X without its hubs, in X's order; it is X
	// when Hubs is 0. The operand keeps no other copy of X.
	Tail *Pattern
	// W holds each edge i→k of X exactly once: in row i when X(i,:) is
	// longer than X(k,:), in row k otherwise, a tie going to the lower
	// vertex id. Row r lists first the k whose Tail(k,:) is not empty,
	// then the others; within each group, first the k of X(r,:) it keeps,
	// in X's order, then the i whose X row lists r, ascending.
	W *Pattern
	// WalkEnd ends, for each row r of W, the edges whose Tail(k,:) is not
	// empty: they are W.Col[W.RowPtr[r]:WalkEnd[r]].
	WalkEnd []Index
	// CostPrefix is the row-cost prefix of the count, length n+1: row r
	// costs Words()·nnz(W(r,:)) + t_r·Σ_{k ∈ W(r,:)} nnz(Tail(k,:)) +
	// nnz(Tail(r,:)) + 1, t_r being 1 when Tail(r,:) is not empty and 0
	// otherwise. That is the cost_i = flops_i + nnz(M_i*) + 1 of
	// core.RowCosts with the bitmap AND of an edge counted as Words()
	// flops and only the tails the count walks as flops. Without bits
	// every row of W with an edge has a non-empty X row, so that is
	// Σ_{k ∈ W(r,:)} nnz(X(k,:)) + nnz(X(r,:)) + 1, and the costs total
	// flops(W·X) + nnz(X) + n.
	CostPrefix []int64
	// MaxRowCost is the largest row cost.
	MaxRowCost int64
	// Flops is flops(X·X) = Σ over the edges i→k of X of nnz(X(k,:)), the
	// flops of the relabeled L·L, which X is in g's labels. The count
	// reads far fewer entries than that: one row of each edge's pair, and
	// with bits only its tail and Words() words of bitmap.
	Flops int64
}

// Words returns the 64-bit words of each row's hub bitmap, 0 without
// bits.
func (p *PairOperand) Words() int { return pairWords(p.Hubs) }

// Bytes returns the bytes of the operand's arrays.
func (p *PairOperand) Bytes() int64 {
	idx := len(p.Tail.RowPtr) + len(p.Tail.Col) + len(p.W.RowPtr) + len(p.W.Col) + len(p.WalkEnd)
	return 4*int64(idx) + 8*int64(len(p.CostPrefix)+len(p.Bits))
}

// maxPairHubs is the most hubs a count operand carries bits for: eight
// words, one cache line per row.
const maxPairHubs = 512

// pairWords is the 64-bit words of a bitmap over hubs vertices.
func pairWords(hubs int) int { return (hubs + 63) / 64 }

// NewPairOperand builds the triangle-count operand of the square graph g
// (see PairOperand) on up to workers goroutines (0 means GOMAXPROCS). g's
// rows must be duplicate-free; they need not be sorted, and g need not be
// symmetric: W is built from X, not from g's other half. Whether it
// carries bits follows from counted work alone (see PairOperand). The
// output is byte-identical for every worker count. A worker panic is
// re-raised on the caller as a parallel.WorkerPanic.
func NewPairOperand(g *Pattern, workers int) *PairOperand {
	hubs := pairHubs(g, maxPairHubs)
	x, hubNNZ := degreeTril(g, RowSpans(g.RowPtr, workers), workers, hubMin(g, hubs))
	return pairOperand(x, hubNNZ, hubs, rowSpans(x.RowPtr, relabelRanges(x.NNZ(), workers)), false)
}

// pairHubs lists the min(k, n, maxPairHubs) vertices of g that
// DegreeTril ranks highest, highest first.
func pairHubs(g *Pattern, k int) []Index {
	order := degreeDescOrder(g.RowPtr)
	return order[:min(k, maxPairHubs, len(order))]
}

// hubMin is the lowest DegreeTril rank among hubs, the highest-ranked
// vertices of g, or math.MaxInt64 when there are none.
func hubMin(g *Pattern, hubs []Index) int64 {
	if len(hubs) == 0 {
		return math.MaxInt64
	}
	return degreeRank(g.RowPtr, hubs[len(hubs)-1])
}

// pairOperand builds the count operand from X, each row's count of hub
// entries and the hubs, over the contiguous row ranges of bounds, one
// range per worker, as a two-pass scatter like relabelUpper's. Pass 1
// counts each row's kept out-part, its cost without bits, the hub entries
// of the rows it walks and the flops, and into the range's own histograms
// each column's in-part entries and their cost. From those sums the rule
// of PairOperand decides whether the operand carries bits; with force
// set, any non-empty hubs keeps them. One O(n·p) sweep turns the
// histograms into RowPtr, the row costs and each range's first slot in
// every row's in-part. Pass 2 writes each row's out-part, scatters its
// in-part entries from those slots and, with bits, writes the row's tail
// and bitmap. The ranges follow each other in ascending rows and each
// walks its rows in ascending order, so every in-part comes out
// ascending. A last pass moves each W row's edges with a non-empty tail
// first, keeping their order, and with bits sums the row costs from W.
// The output is byte-identical for any split.
func pairOperand(x *Pattern, hubNNZ, hubs, bounds []Index, force bool) *PairOperand {
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
	walks := make([]int64, p)
	parallel.ForChunks(nil, p, p, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			inNNZ[t], inCost[t] = make([]Index, n), make([]int64, n)
			flops[t], walks[t] = pairSplit(x, key, hubNNZ, bounds[t], bounds[t+1], outNNZ, outCost, inNNZ[t], inCost[t])
		}
	})
	var total, hubWalks int64
	for t := range p {
		total += flops[t]
		hubWalks += walks[t]
	}
	words := pairWords(len(hubs))
	if !force && hubWalks <= int64(words)*int64(x.NNZ()) {
		hubs, words = nil, 0
	}
	// inNNZ[t][r] becomes the slot of range t's first entry in row r's
	// in-part, and cost[r+1] row r's cost without bits.
	ptr := make([]Index, n+1)
	cost := make([]int64, n+1)
	for r := range n {
		pos := ptr[r] + outNNZ[r]
		c := outCost[r] + key[r]>>32 + 1
		for t := range p {
			inNNZ[t][r], pos = pos, pos+inNNZ[t][r]
			c += inCost[t][r]
		}
		ptr[r+1] = pos
		cost[r+1] = c
	}
	tail, bits := x, []uint64(nil)
	var hubBit []int32 // the rank of hub v, -1 for the other vertices
	if words > 0 {
		tp := make([]Index, n+1)
		for r := range n {
			tp[r+1] = tp[r] + rp[r+1] - rp[r] - hubNNZ[r]
		}
		tail = &Pattern{NRows: n, NCols: n, RowPtr: tp, Col: make([]Index, tp[n])}
		bits = make([]uint64, int(n)*words)
		hubBit = make([]int32, n)
		for v := range hubBit {
			hubBit[v] = -1
		}
		for b, v := range hubs {
			hubBit[v] = int32(b)
		}
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
			if words > 0 {
				pairHubSplit(x, hubBit, bounds[t], bounds[t+1], tail, bits, words)
			}
		}
	})
	w := &Pattern{NRows: n, NCols: n, RowPtr: ptr, Col: col[:nnz:nnz]}
	walkEnd := make([]Index, n)
	parallel.ForChunks(nil, p, p, 1, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			pairWalkFirst(w, tail, words, bounds[t], bounds[t+1], walkEnd, cost[1:])
		}
	})
	var maxCost int64
	for r := range n {
		maxCost = max(maxCost, cost[r+1])
		cost[r+1] += cost[r]
	}
	return &PairOperand{
		Hubs:       len(hubs),
		Bits:       bits,
		Tail:       tail,
		W:          w,
		WalkEnd:    walkEnd,
		CostPrefix: cost,
		MaxRowCost: maxCost,
		Flops:      total,
	}
}

// pairSplit is pass 1 of pairOperand over X's rows [lo, hi): it sets
// each row's out-part length and cost, adds each in-part entry to its
// row's count and cost in the range's histograms cnt and cost, and
// returns the range's share of flops(X·X) and of the hub entries of the
// walked rows.
func pairSplit(x *Pattern, key []int64, hubNNZ []Index, lo, hi Index, outNNZ []Index, outCost []int64, cnt []Index, cost []int64) (flops, walks int64) {
	rp, xc := x.RowPtr, x.Col
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
			walks += int64(hubNNZ[k]) &^ -int64(in)
			cnt[k] += in
			cost[k] += oi & -int64(in)
			flops += ok
		}
		outNNZ[i], outCost[i] = kept, c
		walks += int64(rp[i+1]-rp[i]-kept) * int64(hubNNZ[i]) // the edges whose walk is row i
	}
	return flops, walks
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

// pairHubSplit writes the tails and the hub bitmaps of X's rows [lo, hi)
// into tail and bits, words to a row.
func pairHubSplit(x *Pattern, hubBit []int32, lo, hi Index, tail *Pattern, bits []uint64, words int) {
	rp, xc := x.RowPtr, x.Col
	for i := lo; i < hi; i++ {
		dst := tail.RowPtr[i]
		row := bits[int(i)*words : int(i+1)*words]
		for _, j := range xc[rp[i]:rp[i+1]] {
			if b := hubBit[j]; b >= 0 {
				row[b>>6] |= 1 << (b & 63)
			} else {
				tail.Col[dst] = j
				dst++
			}
		}
	}
}

// pairWalkFirst moves, in each of W's rows [lo, hi), the edges whose
// Tail(k,:) is not empty ahead of the others, keeping the order within
// each group, and sets walkEnd[r] past them. With bits it also sets
// cost[r] to the row's cost: words·nnz(W(r,:)) + t_r·Σ_{k ∈ W(r,:)}
// nnz(Tail(k,:)) + nnz(Tail(r,:)) + 1 (see PairOperand).
func pairWalkFirst(w, tail *Pattern, words int, lo, hi Index, walkEnd []Index, cost []int64) {
	tp := tail.RowPtr
	var most Index
	for r := lo; r < hi; r++ {
		most = max(most, w.RowPtr[r+1]-w.RowPtr[r])
	}
	rest := make([]Index, 0, most)
	for r := lo; r < hi; r++ {
		row := w.Col[w.RowPtr[r]:w.RowPtr[r+1]]
		rest = rest[:0]
		first := 0
		var walked int64
		for _, k := range row {
			if t := tp[k+1] - tp[k]; t > 0 {
				row[first] = k
				first++
				walked += int64(t)
			} else {
				rest = append(rest, k)
			}
		}
		copy(row[first:], rest)
		walkEnd[r] = w.RowPtr[r] + Index(first)
		if words > 0 {
			tr := int64(tp[r+1] - tp[r])
			if tr == 0 {
				walked = 0
			}
			cost[r] = int64(words)*int64(len(row)) + walked + tr + 1
		}
	}
}
