package core

import (
	"repro/internal/accum"
	"repro/internal/matrix"
)

// innerKernel implements the pull-based dot-product algorithm (§4.1): for
// every unmasked output position (i, j) with M_ij ≠ 0 it computes the
// sparse dot product A_i* · B_*j against the sorted B column (B stored in
// CSC). The output entry exists iff the patterns intersect (structural
// semantics); its value is the semiring sum of the pairwise products.
//
// Each row scatters A_i* once into a per-worker MSA taken from the
// workspace pool, in the counting-mode convention of accum.MSA: the row's
// columns are marked Allowed (= 1), everything else stays NotAllowed (= 0),
// and the values sit beside the Allowed keys (operators whose Mul ignores
// A's value skip the value writes). Every B column the mask asks for is then
// a probe of that array: walk B_*j in ascending k, stop at the first index
// past A_i*'s largest column, and combine the products at Allowed keys. A
// row costs about 2·nnz(A_i*) for the scatter and reset plus the B entries
// inside A's span; a merge per output would pay nnz(A_i*) for every mask
// entry instead. Matches arrive in ascending k and the first one sets the
// accumulator, so each value is the sum, in the same order, that a sorted
// merge of A_i* with B_*j forms. The row ends by resetting only the keys it
// marked; values at NotAllowed keys are scratch and are never read.
//
// Under a complemented mask the kernel computes the dot product for every
// column *not* present in the mask row — Θ(ncols) candidate positions per
// row, which is why the paper excludes pull-based algorithms from the
// betweenness centrality benchmark as prohibitively slow. Provided here for
// completeness and correctness testing. The complemented row walks the
// sorted mask row beside the column sweep and skips the columns it names.
//
// Each probe is the semiring's lp.innerProbe: the generated probe of a
// named operator, or funcLoops' for a custom semiring.
type innerKernel[T any] struct {
	m    *matrix.Pattern
	a    *matrix.CSR[T]
	bcsc *matrix.CSC[T]
	lp   opLoops[T]
	comp bool
	acc  *accum.MSA[T] // A's row, scattered in counting-mode states
}

func newInnerKernelFactory[T any](m *matrix.Pattern, a *matrix.CSR[T], bcsc *matrix.CSC[T], lp opLoops[T], comp bool, ws *Workspaces) func() kernel[T] {
	return func() kernel[T] {
		return &innerKernel[T]{m: m, a: a, bcsc: bcsc, lp: lp, comp: comp,
			acc: wsGetMSA[T](ws, int(a.NCols))}
	}
}

func (k *innerKernel[T]) recycle(ws *Workspaces) {
	wsPutMSA(ws, k.acc)
	k.acc = nil
}

// scatter marks row i's columns Allowed in the scratch, storing their values
// too when vals is set, and returns the columns (for reset) with the
// row's largest column. The row must be non-empty.
func (k *innerKernel[T]) scatter(i Index, vals bool) (aIdx []Index, amax Index) {
	aLo, aHi := k.a.RowPtr[i], k.a.RowPtr[i+1]
	aIdx = k.a.Col[aLo:aHi]
	state, value := k.acc.Arrays()
	if vals {
		aVal := k.a.Val[aLo:aHi]
		aVal = aVal[:len(aIdx)]
		for p, c := range aIdx {
			state[c] = accum.Allowed
			value[c] = aVal[p]
		}
	} else {
		for _, c := range aIdx {
			state[c] = accum.Allowed
		}
	}
	return aIdx, aIdx[len(aIdx)-1]
}

// reset returns the keys scatter marked to NotAllowed.
func (k *innerKernel[T]) reset(aIdx []Index) {
	state, _ := k.acc.Arrays()
	for _, c := range aIdx {
		state[c] = accum.NotAllowed
	}
}

// probePattern is the symbolic probe: true iff B's column meets the
// scattered A row.
func probePattern(state []accum.State, amax Index, bIdx []Index) bool {
	for _, c := range bIdx {
		if c > amax {
			return false
		}
		if state[c] == accum.Allowed {
			return true
		}
	}
	return false
}

func (k *innerKernel[T]) numericRow(i Index, col []Index, val []T) Index {
	if k.a.RowPtr[i] == k.a.RowPtr[i+1] {
		return 0
	}
	aIdx, amax := k.scatter(i, !k.lp.innerNoAVal)
	cnt := k.numericProbes(i, amax, col, val)
	k.reset(aIdx)
	return cnt
}

// numericProbes runs one probe per unmasked column of row i against the
// scattered A row, writing the non-empty dot products in column order.
func (k *innerKernel[T]) numericProbes(i, amax Index, col []Index, val []T) Index {
	state, value := k.acc.Arrays()
	mrow := k.m.Row(i)
	var cnt Index
	if !k.comp {
		for _, j := range mrow {
			bIdx, bVal := k.bcsc.Column(j)
			if v, ok := k.lp.innerProbe(state, value, amax, bIdx, bVal); ok {
				col[cnt] = j
				val[cnt] = v
				cnt++
			}
		}
		return cnt
	}
	mi := 0
	for j := Index(0); j < k.bcsc.NCols; j++ {
		if mi < len(mrow) && mrow[mi] == j {
			mi++
			continue
		}
		bIdx, bVal := k.bcsc.Column(j)
		if v, ok := k.lp.innerProbe(state, value, amax, bIdx, bVal); ok {
			col[cnt] = j
			val[cnt] = v
			cnt++
		}
	}
	return cnt
}

func (k *innerKernel[T]) symbolicRow(i Index) Index {
	if k.a.RowPtr[i] == k.a.RowPtr[i+1] {
		return 0
	}
	aIdx, amax := k.scatter(i, false)
	cnt := k.symbolicProbes(i, amax)
	k.reset(aIdx)
	return cnt
}

// symbolicProbes counts the unmasked columns of row i whose B column meets
// the scattered A row.
func (k *innerKernel[T]) symbolicProbes(i, amax Index) Index {
	state, _ := k.acc.Arrays()
	mrow := k.m.Row(i)
	var cnt Index
	if !k.comp {
		for _, j := range mrow {
			bIdx, _ := k.bcsc.Column(j)
			if probePattern(state, amax, bIdx) {
				cnt++
			}
		}
		return cnt
	}
	mi := 0
	for j := Index(0); j < k.bcsc.NCols; j++ {
		if mi < len(mrow) && mrow[mi] == j {
			mi++
			continue
		}
		bIdx, _ := k.bcsc.Column(j)
		if probePattern(state, amax, bIdx) {
			cnt++
		}
	}
	return cnt
}
