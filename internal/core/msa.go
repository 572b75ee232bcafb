package core

import (
	"sort"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// msaKernel implements the MSA masked SpGEVM of Algorithm 2 row by row:
// mark the mask entries allowed, scatter the scaled B rows through the MSA
// state machine, then gather in mask order (which keeps output rows sorted
// because mask rows are sorted). Plus-pair rows on a non-complemented mask
// run the generated counting row instead (opLoops.msaCount), which adds
// the state byte per flop rather than switching on it.
//
// The MSA's dense state array is itself a direct-index mask representation,
// so the bitmap adds nothing here; only the dense-run representation changes
// execution. A mask row that is a contiguous run [lo,hi) skips the
// SetAllowed/SetNotAllowed scatter (and the complement path's mask-row
// reset): membership is the range check, with the state array used purely
// for accumulation. Non-run rows fall back to the scatter row by row.
//
// The kernel is generic over the operator type O: instantiated for a named
// zero-size operator (semiring.PlusPairF64, ...) the ops.Mul/ops.Add calls
// in the scatter loops inline; instantiated for semiring.FuncOps it computes
// with exactly the same loop structure through the func fields, so the two
// paths are bit-identical. The numeric loops hoist each B row into local
// subslices so the per-flop loads are bounds-check-free.
type msaKernel[T any, O semiring.Ops[T]] struct {
	m     *matrix.Pattern
	a, b  *matrix.CSR[T]
	ops   O
	lp    opLoops[T] // monomorphized scatter loops; zero → generic ops loops
	comp  bool
	dense bool // RepDense: direct-index contiguous mask rows
	acc   *accum.MSA[T]
}

func newMSAKernelFactory[T any, O semiring.Ops[T]](m *matrix.Pattern, a, b *matrix.CSR[T], ops O, lp opLoops[T], comp bool, rep MaskRep, ws *Workspaces) func() kernel[T] {
	return func() kernel[T] {
		return &msaKernel[T, O]{m: m, a: a, b: b, ops: ops, lp: lp, comp: comp, dense: rep == RepDense,
			acc: wsGetMSA[T](ws, int(b.NCols))}
	}
}

func (k *msaKernel[T, O]) recycle(ws *Workspaces) {
	wsPutMSA(ws, k.acc)
	k.acc = nil
}

// numericRowRun is the dense-run numeric row: no mask scatter, membership by
// range check. In normal mode the in-run default state NotAllowed plays the
// role of Allowed; in complement mode in-run columns are skipped outright
// and the insertion log drives the gather as usual.
func (k *msaKernel[T, O]) numericRowRun(i Index, lo, hi Index, col []Index, val []T) Index {
	mrow := k.m.Row(i)
	acc, a, b, ops := k.acc, k.a, k.b, k.ops
	if k.lp.msaRun != nil {
		k.lp.msaRun(acc, a, b, i, lo, hi, k.comp)
	} else {
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			kcol := a.Col[kk]
			av := a.Val[kk]
			bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
			bCol := b.Col[bLo:bHi]
			bVal := b.Val[bLo:bHi]
			bVal = bVal[:len(bCol)]
			for p, j := range bCol {
				if (j >= lo && j < hi) == k.comp { // masked out
					continue
				}
				switch acc.State(j) {
				case accum.NotAllowed:
					if k.comp {
						acc.StoreC(j, ops.Mul(av, bVal[p]))
					} else {
						acc.Store(j, ops.Mul(av, bVal[p]))
					}
				case accum.Set:
					acc.SetValue(j, ops.Add(acc.Value(j), ops.Mul(av, bVal[p])))
				}
			}
		}
	}
	var cnt Index
	if k.comp {
		ins := acc.Inserted()
		sortIndices(ins)
		for _, j := range ins {
			col[cnt] = j
			val[cnt] = acc.Value(j)
			cnt++
		}
		acc.ResetC(nil) // no Excluded marks were scattered
		return cnt
	}
	for _, j := range mrow {
		if v, ok := acc.Remove(j); ok {
			col[cnt] = j
			val[cnt] = v
			cnt++
		}
	}
	return cnt
}

func (k *msaKernel[T, O]) numericRow(i Index, col []Index, val []T) Index {
	if k.dense {
		if lo, hi, ok := matrix.RowRun(k.m.Row(i)); ok {
			return k.numericRowRun(i, lo, hi, col, val)
		}
	}
	if k.comp {
		return k.numericRowC(i, col, val)
	}
	mrow := k.m.Row(i)
	if len(mrow) == 0 {
		return 0
	}
	acc, a, b, ops := k.acc, k.a, k.b, k.ops
	if k.lp.msaCount != nil {
		return k.lp.msaCount(acc, a, b, i, mrow, col, val)
	}
	for _, j := range mrow {
		acc.SetAllowed(j)
	}
	if k.lp.msa != nil {
		k.lp.msa(acc, a, b, i)
	} else {
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			kcol := a.Col[kk]
			av := a.Val[kk]
			bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
			bCol := b.Col[bLo:bHi]
			bVal := b.Val[bLo:bHi]
			bVal = bVal[:len(bCol)]
			for p, j := range bCol {
				switch acc.State(j) {
				case accum.Allowed:
					acc.Store(j, ops.Mul(av, bVal[p]))
				case accum.Set:
					acc.SetValue(j, ops.Add(acc.Value(j), ops.Mul(av, bVal[p])))
				}
			}
		}
	}
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
// drives the gather so the dense array is never scanned.
func (k *msaKernel[T, O]) numericRowC(i Index, col []Index, val []T) Index {
	mrow := k.m.Row(i)
	acc, a, b, ops := k.acc, k.a, k.b, k.ops
	for _, j := range mrow {
		acc.SetNotAllowed(j)
	}
	if k.lp.msaC != nil {
		k.lp.msaC(acc, a, b, i)
	} else {
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			kcol := a.Col[kk]
			av := a.Val[kk]
			bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
			bCol := b.Col[bLo:bHi]
			bVal := b.Val[bLo:bHi]
			bVal = bVal[:len(bCol)]
			for p, j := range bCol {
				switch acc.State(j) {
				case accum.NotAllowed: // default-allowed under complement
					acc.StoreC(j, ops.Mul(av, bVal[p]))
				case accum.Set:
					acc.SetValue(j, ops.Add(acc.Value(j), ops.Mul(av, bVal[p])))
				}
			}
		}
	}
	ins := acc.Inserted()
	sortIndices(ins)
	var cnt Index
	for _, j := range ins {
		col[cnt] = j
		val[cnt] = acc.Value(j)
		cnt++
	}
	acc.ResetC(mrow)
	return cnt
}

// symbolicRowRun is the dense-run symbolic row: range-check membership, no
// mask scatter.
func (k *msaKernel[T, O]) symbolicRowRun(i Index, lo, hi Index) Index {
	mrow := k.m.Row(i)
	acc, a, b := k.acc, k.a, k.b
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		for p := b.RowPtr[kcol]; p < b.RowPtr[kcol+1]; p++ {
			j := b.Col[p]
			if (j >= lo && j < hi) == k.comp {
				continue
			}
			if acc.State(j) == accum.NotAllowed {
				if k.comp {
					acc.MarkC(j)
				} else {
					acc.Mark(j)
				}
			}
		}
	}
	if k.comp {
		cnt := Index(len(acc.Inserted()))
		acc.ResetC(nil)
		return cnt
	}
	var cnt Index
	for _, j := range mrow {
		if _, ok := acc.Remove(j); ok {
			cnt++
		}
	}
	return cnt
}

func (k *msaKernel[T, O]) symbolicRow(i Index) Index {
	if k.dense {
		if lo, hi, ok := matrix.RowRun(k.m.Row(i)); ok {
			return k.symbolicRowRun(i, lo, hi)
		}
	}
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

// sortIndices sorts a small index slice ascending.
func sortIndices(s []Index) {
	if len(s) <= 32 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		return
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
