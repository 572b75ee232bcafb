package accum

// IterHeap is the min-heap of row iterators used by the Heap and HeapDot
// algorithms (§5.5). Each entry walks one row B_k* (k ranging over the
// nonzero columns of A_i*); the heap orders entries by the column index the
// iterator currently points at, so popping yields the multiset
// S = {B_kj | A_ik ≠ 0} in globally sorted column order — the multi-way
// merge of Knuth vol. 3 — without materializing S.
//
// The APos field remembers which A_i* entry spawned the iterator so the
// kernel can fetch the scale factor u_k = A_ik lazily.
//
// Ties on the column index are broken by APos, so entries of one output
// column pop in A-entry order — the same per-column accumulation order the
// scatter-based kernels use, which keeps heap results bit-identical to
// theirs regardless of the push sequence (the mask representations push in
// different orders).
type IterHeap struct {
	h []RowIterator
}

// before is the heap order: (Col, APos) lexicographic.
func (a RowIterator) before(b RowIterator) bool {
	return a.Col < b.Col || (a.Col == b.Col && a.APos < b.APos)
}

// RowIterator points into one row of B.
type RowIterator struct {
	Col  Index // column index currently pointed at: B.Col[Pos]
	Pos  Index // current position within B storage
	End  Index // one past the last position of the row
	APos Index // position in A storage of the A_ik entry that scales this row
}

// Valid reports whether the iterator has entries left.
func (it RowIterator) Valid() bool { return it.Pos < it.End }

// Reset empties the heap, keeping capacity.
func (ih *IterHeap) Reset() { ih.h = ih.h[:0] }

// Len returns the number of iterators in the heap.
func (ih *IterHeap) Len() int { return len(ih.h) }

// Bytes returns the capacity the heap holds, in bytes.
func (ih *IterHeap) Bytes() int64 { return sliceBytes(ih.h) }

// Push adds an iterator. The caller must ensure it is valid and its Col
// field is loaded.
func (ih *IterHeap) Push(it RowIterator) {
	ih.h = append(ih.h, it)
	ih.siftUp(len(ih.h) - 1)
}

// PopMin removes and returns the iterator with the smallest current column.
func (ih *IterHeap) PopMin() RowIterator {
	top := ih.h[0]
	last := len(ih.h) - 1
	ih.h[0] = ih.h[last]
	ih.h = ih.h[:last]
	if last > 0 {
		ih.siftDown(0)
	}
	return top
}

func (ih *IterHeap) siftUp(i int) {
	h := ih.h
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (ih *IterHeap) siftDown(i int) {
	h := ih.h
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
