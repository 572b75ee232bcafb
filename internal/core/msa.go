package core

import (
	"repro/internal/accum"
	"repro/internal/matrix"
)

// msaKernel implements the MSA masked SpGEVM of Algorithm 2 row by row:
// mark the mask entries allowed, scatter the scaled B rows through the MSA
// state machine, then gather in mask order (which keeps output rows sorted
// because mask rows are sorted). Plus-pair rows on a non-complemented mask
// run the generated counting row instead (opLoops.msaCount), which adds
// the state byte per flop rather than switching on it. Complemented rows
// have no mask order to gather in; they gather the insertion log, which
// the MSA's two-level bitmap puts in column order (accum.MSA.OrderInserted).
//
// The scatter is the semiring's loop set (opLoops): the generated loop of a
// named operator, or funcLoops for a custom semiring.
type msaKernel[T any] struct {
	m    *matrix.Pattern
	a, b *matrix.CSR[T]
	lp   opLoops[T]
	comp bool
	acc  *accum.MSA[T]
}

func newMSAKernelFactory[T any](m *matrix.Pattern, a, b *matrix.CSR[T], lp opLoops[T], comp bool, ws *Workspaces) func() kernel[T] {
	return func() kernel[T] {
		return &msaKernel[T]{m: m, a: a, b: b, lp: lp, comp: comp,
			acc: wsGetMSA[T](ws, int(b.NCols))}
	}
}

func (k *msaKernel[T]) recycle(ws *Workspaces) {
	wsPutMSA(ws, k.acc)
	k.acc = nil
}

func (k *msaKernel[T]) numericRow(i Index, col []Index, val []T) Index {
	if k.comp {
		return k.numericRowC(i, col, val)
	}
	mrow := k.m.Row(i)
	if len(mrow) == 0 {
		return 0
	}
	if k.lp.msaCount != nil {
		return k.lp.msaCount(k.acc, k.a, k.b, i, mrow, col, val)
	}
	acc := k.acc
	for _, j := range mrow {
		acc.SetAllowed(j)
	}
	k.lp.msa(acc, k.a, k.b, i)
	var cnt Index
	for _, j := range mrow {
		if v, ok := acc.Remove(j); ok {
			col[cnt] = j
			val[cnt] = v
			cnt++
		}
	}
	return cnt
}

// numericRowC is the complemented-mask row (§5.2): mask entries are marked
// Excluded, everything else is allowed by default, and an insertion log
// drives the gather so the dense array is never scanned. The log comes out
// in column order from the MSA's bitmap walk, not from a comparison sort.
func (k *msaKernel[T]) numericRowC(i Index, col []Index, val []T) Index {
	mrow := k.m.Row(i)
	acc := k.acc
	for _, j := range mrow {
		acc.SetNotAllowed(j)
	}
	k.lp.msaC(acc, k.a, k.b, i)
	var cnt Index
	for _, j := range acc.OrderInserted() {
		col[cnt] = j
		val[cnt] = acc.Value(j)
		cnt++
	}
	acc.ResetC(mrow)
	return cnt
}

func (k *msaKernel[T]) symbolicRow(i Index) Index {
	acc, a, b := k.acc, k.a, k.b
	mrow := k.m.Row(i)
	if k.comp {
		for _, j := range mrow {
			acc.SetNotAllowed(j)
		}
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			kcol := a.Col[kk]
			for p := b.RowPtr[kcol]; p < b.RowPtr[kcol+1]; p++ {
				j := b.Col[p]
				if acc.State(j) == accum.NotAllowed {
					acc.MarkC(j)
				}
			}
		}
		cnt := Index(len(acc.Inserted()))
		acc.ResetC(mrow)
		return cnt
	}
	if len(mrow) == 0 {
		return 0
	}
	for _, j := range mrow {
		acc.SetAllowed(j)
	}
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		for p := b.RowPtr[kcol]; p < b.RowPtr[kcol+1]; p++ {
			j := b.Col[p]
			if acc.State(j) == accum.Allowed {
				acc.Mark(j)
			}
		}
	}
	var cnt Index
	for _, j := range mrow {
		if _, ok := acc.Remove(j); ok {
			cnt++
		}
	}
	return cnt
}
