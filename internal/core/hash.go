package core

import (
	"repro/internal/accum"
	"repro/internal/matrix"
)

// hashKernel implements the Hash masked SpGEVM (§5.3): per row, the hash
// table is sized for exactly nnz(mask row) keys at load factor 0.25, mask
// entries are pre-inserted as Allowed, and the scatter probes instead of
// indexing a dense array. Gather walks the mask row (stable, sorted output).
//
// Under a complemented mask the mask entries are pre-inserted as
// NotAllowed instead, every other product column enters the table as it
// arrives, and the gather sorts the table's keys, so no explicit complement
// is ever materialized.
//
// The scatter is the semiring's loop set (see msaKernel).
type hashKernel[T any] struct {
	m    *matrix.Pattern
	a, b *matrix.CSR[T]
	lp   opLoops[T]
	comp bool
	acc  *accum.Hash[T]
	keys []Index // complement-mode gather scratch
	vals []T
}

func newHashKernelFactory[T any](m *matrix.Pattern, a, b *matrix.CSR[T], lp opLoops[T], comp bool, ws *Workspaces) func() kernel[T] {
	return func() kernel[T] {
		return &hashKernel[T]{m: m, a: a, b: b, lp: lp, comp: comp,
			acc: wsGetHash[T](ws, 16)}
	}
}

func (k *hashKernel[T]) recycle(ws *Workspaces) {
	wsPutHash(ws, k.acc)
	k.acc = nil
}

func (k *hashKernel[T]) numericRow(i Index, col []Index, val []T) Index {
	if k.comp {
		return k.numericRowC(i, col, val)
	}
	mrow := k.m.Row(i)
	if len(mrow) == 0 {
		return 0
	}
	acc := k.acc
	acc.Prepare(len(mrow))
	for _, j := range mrow {
		acc.SetAllowed(j)
	}
	k.lp.hash(acc, k.a, k.b, i)
	var cnt Index
	for _, j := range mrow {
		if v, ok := acc.Lookup(j); ok {
			col[cnt] = j
			val[cnt] = v
			cnt++
		}
	}
	return cnt
}

func (k *hashKernel[T]) numericRowC(i Index, col []Index, val []T) Index {
	mrow := k.m.Row(i)
	acc := k.acc
	acc.PrepareC(len(mrow) + 8)
	for _, j := range mrow {
		acc.SetNotAllowed(j)
	}
	k.lp.hashC(acc, k.a, k.b, i)
	k.keys, k.vals = k.keys[:0], k.vals[:0]
	k.keys, k.vals = acc.GatherC(k.keys, k.vals)
	sortKeyVals(k.keys, k.vals)
	copy(col, k.keys)
	copy(val, k.vals)
	return Index(len(k.keys))
}

func (k *hashKernel[T]) symbolicRow(i Index) Index {
	mrow := k.m.Row(i)
	acc, a, b := k.acc, k.a, k.b
	if k.comp {
		acc.PrepareC(len(mrow) + 8)
		for _, j := range mrow {
			acc.SetNotAllowed(j)
		}
		var cnt Index
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			kcol := a.Col[kk]
			for p := b.RowPtr[kcol]; p < b.RowPtr[kcol+1]; p++ {
				j := b.Col[p]
				slot, st := acc.ProbeC(j)
				if st == accum.NotAllowed {
					acc.MarkNewAtC(slot, j)
					cnt++
				}
			}
		}
		return cnt
	}
	if len(mrow) == 0 {
		return 0
	}
	acc.Prepare(len(mrow))
	for _, j := range mrow {
		acc.SetAllowed(j)
	}
	var cnt Index
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		for p := b.RowPtr[kcol]; p < b.RowPtr[kcol+1]; p++ {
			j := b.Col[p]
			slot, st := acc.Probe(j)
			if st == accum.Allowed {
				acc.MarkAt(slot)
				cnt++
			}
		}
	}
	return cnt
}

// sortKeyVals sorts parallel key/value slices by key ascending with a
// Shell sort over Ciura's gaps: in place, no allocation, and fast on the
// short rows a complemented Hash gather produces.
func sortKeyVals[T any](keys []Index, vals []T) {
	n := len(keys)
	if n < 2 {
		return
	}
	gaps := [...]int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, gap := range gaps {
		if gap >= n {
			continue
		}
		for i := gap; i < n; i++ {
			kI, vI := keys[i], vals[i]
			j := i
			for j >= gap && keys[j-gap] > kI {
				keys[j], vals[j] = keys[j-gap], vals[j-gap]
				j -= gap
			}
			keys[j], vals[j] = kI, vI
		}
	}
}
