package core

import (
	"math"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// nInspectAll is the NInspect=∞ setting (the HeapDot variant of §5.5).
const nInspectAll = math.MaxInt32

// heapKernel implements the masked heap SpGEVM of Algorithms 4 and 5
// (§5.5): a min-heap of row iterators over {B_k* | A_ik ≠ 0} yields the
// product's column indices in globally sorted order; a two-way merge with
// the sorted mask row selects the entries to keep, and consecutive pops of
// the same column fold into the previous output entry, so no accumulator
// array is needed and the output is produced directly in sorted order.
//
// nInspect controls how much of the mask the Insert procedure inspects
// before pushing an iterator back onto the heap (Algorithm 5): 0 pushes
// blindly, 1 checks just the current mask entry (the paper's "Heap"), and
// nInspectAll advances the iterator until it points at a column present in
// the remaining mask ("HeapDot").
//
// Under a complemented mask the kernel computes products for S \ m instead
// of S ∩ m and always uses NInspect=0 (§5.5 last paragraph).
//
// Generic over the operator type O (see msaKernel).
type heapKernel[T any, O semiring.Ops[T]] struct {
	m        *matrix.Pattern
	a, b     *matrix.CSR[T]
	ops      O
	comp     bool
	nInspect int32
	pq       *accum.IterHeap
}

func newHeapKernelFactory[T any, O semiring.Ops[T]](m *matrix.Pattern, a, b *matrix.CSR[T], ops O, comp bool, nInspect int32, ws *Workspaces) func() kernel[T] {
	if comp {
		nInspect = 0
	}
	return func() kernel[T] {
		return &heapKernel[T, O]{m: m, a: a, b: b, ops: ops, comp: comp, nInspect: nInspect,
			pq: wsGetHeap(ws)}
	}
}

func (k *heapKernel[T, O]) recycle(ws *Workspaces) {
	wsPutHeap(ws, k.pq)
	k.pq = nil
}

// insert is the Insert procedure of Algorithm 5. it must be valid.
// mrow[mPos:] is the unconsumed portion of the mask row.
func (k *heapKernel[T, O]) insert(it accum.RowIterator, mrow []Index, mPos int) {
	b := k.b
	if k.nInspect == 0 {
		it.Col = b.Col[it.Pos]
		k.pq.Push(it)
		return
	}
	toInspect := k.nInspect
	for it.Pos < it.End && mPos < len(mrow) {
		c := b.Col[it.Pos]
		switch {
		case c == mrow[mPos]:
			it.Col = c
			k.pq.Push(it)
			return
		case c < mrow[mPos]:
			// Columns below the current mask frontier can never be output;
			// skip them without pushing.
			it.Pos++
		default:
			mPos++
			toInspect--
			if toInspect == 0 {
				it.Col = c
				k.pq.Push(it)
				return
			}
		}
	}
	// Row exhausted, or mask exhausted (nothing left to output): drop.
}

func (k *heapKernel[T, O]) numericRow(i Index, col []Index, val []T) Index {
	mrow := k.m.Row(i)
	if !k.comp && len(mrow) == 0 {
		return 0
	}
	a, b, ops := k.a, k.b, k.ops
	k.pq.Reset()
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		it := accum.RowIterator{Pos: b.RowPtr[kcol], End: b.RowPtr[kcol+1], APos: kk}
		if it.Valid() {
			k.insert(it, mrow, 0)
		}
	}
	mPos := 0
	prevKey := Index(-1)
	var cnt Index
	for k.pq.Len() > 0 {
		min := k.pq.PopMin()
		for mPos < len(mrow) && mrow[mPos] < min.Col {
			mPos++
		}
		inMask := mPos < len(mrow) && mrow[mPos] == min.Col
		if inMask != k.comp { // keep: mask hit (normal) or mask miss (complement)
			j := min.Col
			v := ops.Mul(a.Val[min.APos], b.Val[min.Pos])
			if prevKey == j {
				val[cnt-1] = ops.Add(val[cnt-1], v)
			} else {
				col[cnt] = j
				val[cnt] = v
				cnt++
				prevKey = j
			}
		}
		if !k.comp && mPos >= len(mrow) {
			break // mask exhausted: no further output possible (Alg. 4 line 9)
		}
		min.Pos++
		if min.Pos < min.End {
			k.insert(min, mrow, mPos)
		}
	}
	return cnt
}

func (k *heapKernel[T, O]) symbolicRow(i Index) Index {
	mrow := k.m.Row(i)
	if !k.comp && len(mrow) == 0 {
		return 0
	}
	a, b := k.a, k.b
	k.pq.Reset()
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		it := accum.RowIterator{Pos: b.RowPtr[kcol], End: b.RowPtr[kcol+1], APos: kk}
		if it.Valid() {
			k.insert(it, mrow, 0)
		}
	}
	mPos := 0
	prevKey := Index(-1)
	var cnt Index
	for k.pq.Len() > 0 {
		min := k.pq.PopMin()
		for mPos < len(mrow) && mrow[mPos] < min.Col {
			mPos++
		}
		inMask := mPos < len(mrow) && mrow[mPos] == min.Col
		if inMask != k.comp && prevKey != min.Col {
			cnt++
			prevKey = min.Col
		}
		if !k.comp && mPos >= len(mrow) {
			break
		}
		min.Pos++
		if min.Pos < min.End {
			k.insert(min, mrow, mPos)
		}
	}
	return cnt
}
