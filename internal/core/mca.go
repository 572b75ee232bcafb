package core

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
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
// Generic over the operator type O (see msaKernel).
type mcaKernel[T any, O semiring.Ops[T]] struct {
	m    *matrix.Pattern
	a, b *matrix.CSR[T]
	ops  O
	lp   opLoops[T] // monomorphized scatter loops; zero → generic ops loops
	acc  *accum.MCA[T]
}

func newMCAKernelFactory[T any, O semiring.Ops[T]](m *matrix.Pattern, a, b *matrix.CSR[T], ops O, lp opLoops[T], ws *Workspaces) func() kernel[T] {
	return func() kernel[T] {
		return &mcaKernel[T, O]{m: m, a: a, b: b, ops: ops, lp: lp, acc: wsGetMCA[T](ws, 64)}
	}
}

func (k *mcaKernel[T, O]) recycle(ws *Workspaces) {
	wsPutMCA(ws, k.acc)
	k.acc = nil
}

func (k *mcaKernel[T, O]) numericRow(i Index, col []Index, val []T) Index {
	mrow := k.m.Row(i)
	if len(mrow) == 0 {
		return 0
	}
	acc, a, b, ops := k.acc, k.a, k.b, k.ops
	acc.Prepare(len(mrow))
	if k.lp.mcaMerge != nil {
		k.lp.mcaMerge(acc, a, b, i, mrow)
	} else {
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			kcol := a.Col[kk]
			av := a.Val[kk]
			bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
			bi := bLo
			// Enumerate the mask row; advance the B row iterator past smaller
			// columns (Algorithm 3 lines 4-8).
			for idx, j := range mrow {
				for bi < bHi && b.Col[bi] < j {
					bi++
				}
				if bi >= bHi {
					break
				}
				if b.Col[bi] == j {
					if acc.State(Index(idx)) == accum.Set {
						acc.SetValue(Index(idx), ops.Add(acc.Value(Index(idx)), ops.Mul(av, b.Val[bi])))
					} else {
						acc.Store(Index(idx), ops.Mul(av, b.Val[bi]))
					}
				}
			}
		}
	}
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

func (k *mcaKernel[T, O]) symbolicRow(i Index) Index {
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
