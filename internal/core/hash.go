package core

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
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
// Generic over the operator type O: named operators inline ops.Mul/ops.Add
// into the probe loops; semiring.FuncOps runs the identical loops through
// the func fields (see msaKernel).
type hashKernel[T any, O semiring.Ops[T]] struct {
	m    *matrix.Pattern
	a, b *matrix.CSR[T]
	ops  O
	lp   opLoops[T] // monomorphized scatter loops; zero → generic ops loops
	comp bool
	acc  *accum.Hash[T]
	keys []Index // complement-mode gather scratch
	vals []T
}

func newHashKernelFactory[T any, O semiring.Ops[T]](m *matrix.Pattern, a, b *matrix.CSR[T], ops O, lp opLoops[T], comp bool, ws *Workspaces) func() kernel[T] {
	return func() kernel[T] {
		return &hashKernel[T, O]{m: m, a: a, b: b, ops: ops, lp: lp, comp: comp,
			acc: wsGetHash[T](ws, 16)}
	}
}

func (k *hashKernel[T, O]) recycle(ws *Workspaces) {
	wsPutHash(ws, k.acc)
	k.acc = nil
}

func (k *hashKernel[T, O]) numericRow(i Index, col []Index, val []T) Index {
	if k.comp {
		return k.numericRowC(i, col, val)
	}
	mrow := k.m.Row(i)
	if len(mrow) == 0 {
		return 0
	}
	acc, a, b, ops := k.acc, k.a, k.b, k.ops
	acc.Prepare(len(mrow))
	for _, j := range mrow {
		acc.SetAllowed(j)
	}
	if k.lp.hash != nil {
		k.lp.hash(acc, a, b, i)
	} else {
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			kcol := a.Col[kk]
			av := a.Val[kk]
			bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
			bCol := b.Col[bLo:bHi]
			bVal := b.Val[bLo:bHi]
			bVal = bVal[:len(bCol)]
			for p, j := range bCol {
				slot, st := acc.Probe(j)
				switch st {
				case accum.Allowed:
					acc.StoreAt(slot, ops.Mul(av, bVal[p]))
				case accum.Set:
					acc.SetValueAt(slot, ops.Add(acc.ValueAt(slot), ops.Mul(av, bVal[p])))
				}
			}
		}
	}
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

func (k *hashKernel[T, O]) numericRowC(i Index, col []Index, val []T) Index {
	mrow := k.m.Row(i)
	acc, a, b, ops := k.acc, k.a, k.b, k.ops
	acc.PrepareC(len(mrow) + 8)
	for _, j := range mrow {
		acc.SetNotAllowed(j)
	}
	if k.lp.hashC != nil {
		k.lp.hashC(acc, a, b, i)
	} else {
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			kcol := a.Col[kk]
			av := a.Val[kk]
			bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
			bCol := b.Col[bLo:bHi]
			bVal := b.Val[bLo:bHi]
			bVal = bVal[:len(bCol)]
			for p, j := range bCol {
				slot, st := acc.ProbeC(j)
				switch st {
				case accum.NotAllowed: // absent: allowed under complement
					acc.InsertNewAtC(slot, j, ops.Mul(av, bVal[p]))
				case accum.Set:
					acc.SetValueAt(slot, ops.Add(acc.ValueAt(slot), ops.Mul(av, bVal[p])))
				}
			}
		}
	}
	k.keys, k.vals = k.keys[:0], k.vals[:0]
	k.keys, k.vals = acc.GatherC(k.keys, k.vals)
	sortKeyVals(k.keys, k.vals)
	copy(col, k.keys)
	copy(val, k.vals)
	return Index(len(k.keys))
}

func (k *hashKernel[T, O]) symbolicRow(i Index) Index {
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
