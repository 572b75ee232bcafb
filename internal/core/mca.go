package core

import (
	"repro/internal/accum"
	"repro/internal/matrix"
)

// mcaKernel implements Algorithm 3, the Mask Compressed Accumulator masked
// SpGEVM (§5.4): the accumulator is indexed by mask *position* rather than
// column id, so its arrays are only nnz(mask row) long.
//
// Each nonzero A_ik merges the sorted B row B_k* against the sorted mask
// row (Algorithm 3 lines 4-8), so a B entry's mask position is the merge
// index: O(nnz(m_i) + nnz(B_k*)) per A entry.
//
// Requires sorted mask and B rows; does not support complemented masks.
// The merge walk is the semiring's loop set (see msaKernel).
type mcaKernel[T any] struct {
	m    *matrix.Pattern
	a, b *matrix.CSR[T]
	lp   opLoops[T]
	acc  *accum.MCA[T]
}

func newMCAKernelFactory[T any](m *matrix.Pattern, a, b *matrix.CSR[T], lp opLoops[T], ws *Workspaces) func() kernel[T] {
	return func() kernel[T] {
		return &mcaKernel[T]{m: m, a: a, b: b, lp: lp, acc: wsGetMCA[T](ws, 64)}
	}
}

func (k *mcaKernel[T]) recycle(ws *Workspaces) {
	wsPutMCA(ws, k.acc)
	k.acc = nil
}

func (k *mcaKernel[T]) numericRow(i Index, col []Index, val []T) Index {
	mrow := k.m.Row(i)
	if len(mrow) == 0 {
		return 0
	}
	acc := k.acc
	acc.Prepare(len(mrow))
	k.lp.mcaMerge(acc, k.a, k.b, i, mrow)
	var cnt Index
	for idx, j := range mrow {
		if v, ok := acc.Remove(Index(idx)); ok {
			col[cnt] = j
			val[cnt] = v
			cnt++
		}
	}
	return cnt
}

func (k *mcaKernel[T]) symbolicRow(i Index) Index {
	mrow := k.m.Row(i)
	if len(mrow) == 0 {
		return 0
	}
	acc, a, b := k.acc, k.a, k.b
	acc.Prepare(len(mrow))
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bi := bLo
		for idx, j := range mrow {
			for bi < bHi && b.Col[bi] < j {
				bi++
			}
			if bi >= bHi {
				break
			}
			if b.Col[bi] == j {
				acc.Mark(Index(idx))
			}
		}
	}
	var cnt Index
	for idx := range mrow {
		if acc.RemoveMark(Index(idx)) {
			cnt++
		}
	}
	return cnt
}
