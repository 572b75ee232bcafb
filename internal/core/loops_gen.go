// Code generated by genloops.go; DO NOT EDIT.

package core

import (
	"repro/internal/accum"
	"repro/internal/matrix"
)

// ----- PlusTimes: Add(x, y) = x + y; Mul(x, y) = x * y -----

// msaLoopPlusTimes is msaKernel.numericRow's scatter with PlusTimes inlined.
func msaLoopPlusTimes[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
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
				acc.Store(j, av*bVal[p])
			case accum.Set:
				acc.SetValue(j, acc.Value(j)+av*bVal[p])
			}
		}
	}
}

// msaCLoopPlusTimes is msaKernel.numericRowC's scatter with PlusTimes inlined.
func msaCLoopPlusTimes[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
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
				acc.StoreC(j, av*bVal[p])
			case accum.Set:
				acc.SetValue(j, acc.Value(j)+av*bVal[p])
			}
		}
	}
}

// hashLoopPlusTimes is hashKernel.numericRow's scatter with PlusTimes inlined.
func hashLoopPlusTimes[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
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
				acc.StoreAt(slot, av*bVal[p])
			case accum.Set:
				acc.SetValueAt(slot, acc.ValueAt(slot)+av*bVal[p])
			}
		}
	}
}

// hashCLoopPlusTimes is hashKernel.numericRowC's scatter with PlusTimes inlined.
func hashCLoopPlusTimes[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
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
				acc.InsertNewAtC(slot, j, av*bVal[p])
			case accum.Set:
				acc.SetValueAt(slot, acc.ValueAt(slot)+av*bVal[p])
			}
		}
	}
}

// mcaMergeLoopPlusTimes is mcaKernel.numericRow's CSR merge walk with PlusTimes inlined.
func mcaMergeLoopPlusTimes[T loopNumeric](acc *accum.MCA[T], a, b *matrix.CSR[T], i Index, mrow []Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		av := a.Val[kk]
		bi, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		for idx, j := range mrow {
			for bi < bHi && b.Col[bi] < j {
				bi++
			}
			if bi >= bHi {
				break
			}
			if b.Col[bi] == j {
				if acc.State(Index(idx)) == accum.Set {
					acc.SetValue(Index(idx), acc.Value(Index(idx))+av*b.Val[bi])
				} else {
					acc.Store(Index(idx), av*b.Val[bi])
				}
			}
		}
	}
}

// probeLoopPlusTimes is innerKernel.probeDot with PlusTimes inlined.
func probeLoopPlusTimes[T loopNumeric](state []accum.State, value []T, amax Index, bIdx []Index, bVal []T) (T, bool) {
	var acc T
	found := false
	bVal = bVal[:len(bIdx)]
	for p, k := range bIdx {
		if k > amax {
			break
		}
		if state[k] != accum.Allowed {
			continue
		}
		v := value[k] * bVal[p]
		if found {
			acc = acc + v
		} else {
			acc = v
			found = true
		}
	}
	return acc, found
}

// opLoopsPlusTimes bundles the PlusTimes loop set for element type T.
func opLoopsPlusTimes[T loopNumeric]() opLoops[T] {
	return opLoops[T]{
		msa:         msaLoopPlusTimes[T],
		msaC:        msaCLoopPlusTimes[T],
		hash:        hashLoopPlusTimes[T],
		hashC:       hashCLoopPlusTimes[T],
		mcaMerge:    mcaMergeLoopPlusTimes[T],
		innerProbe:  probeLoopPlusTimes[T],
		innerNoAVal: false,
	}
}

// ----- PlusPair: Add(x, y) = x + y; Mul(x, y) = 1 -----

// msaCountLoopPlusPair is msaKernel.numericRow for a non-empty,
// non-complemented mask row as a branch-free counting scatter: allow each
// mask key with a zero count, add the state byte (Allowed = 1,
// NotAllowed = 0) for every flop, then gather the non-zero counts in mask
// order, resetting each key. It returns the row's output length.
func msaCountLoopPlusPair[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index, mrow, col []Index, val []T) Index {
	state, value := acc.Arrays()
	for _, j := range mrow {
		state[j] = accum.Allowed
		value[j] = 0
	}
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		for _, j := range b.Col[b.RowPtr[kcol]:b.RowPtr[kcol+1]] {
			value[j] += T(state[j])
		}
	}
	var cnt Index
	for _, j := range mrow {
		state[j] = accum.NotAllowed
		if c := value[j]; c != 0 {
			col[cnt] = j
			val[cnt] = c
			cnt++
		}
	}
	return cnt
}

// msaCLoopPlusPair is msaKernel.numericRowC's scatter with PlusPair inlined.
func msaCLoopPlusPair[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
		for _, j := range bCol {
			switch acc.State(j) {
			case accum.NotAllowed: // default-allowed under complement
				acc.StoreC(j, T(1))
			case accum.Set:
				acc.SetValue(j, acc.Value(j)+T(1))
			}
		}
	}
}

// hashLoopPlusPair is hashKernel.numericRow's scatter with PlusPair inlined.
func hashLoopPlusPair[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
		for _, j := range bCol {
			slot, st := acc.Probe(j)
			switch st {
			case accum.Allowed:
				acc.StoreAt(slot, T(1))
			case accum.Set:
				acc.SetValueAt(slot, acc.ValueAt(slot)+T(1))
			}
		}
	}
}

// hashCLoopPlusPair is hashKernel.numericRowC's scatter with PlusPair inlined.
func hashCLoopPlusPair[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
		for _, j := range bCol {
			slot, st := acc.ProbeC(j)
			switch st {
			case accum.NotAllowed: // absent: allowed under complement
				acc.InsertNewAtC(slot, j, T(1))
			case accum.Set:
				acc.SetValueAt(slot, acc.ValueAt(slot)+T(1))
			}
		}
	}
}

// mcaMergeLoopPlusPair is mcaKernel.numericRow's CSR merge walk with PlusPair inlined.
func mcaMergeLoopPlusPair[T loopNumeric](acc *accum.MCA[T], a, b *matrix.CSR[T], i Index, mrow []Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		bi, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		for idx, j := range mrow {
			for bi < bHi && b.Col[bi] < j {
				bi++
			}
			if bi >= bHi {
				break
			}
			if b.Col[bi] == j {
				if acc.State(Index(idx)) == accum.Set {
					acc.SetValue(Index(idx), acc.Value(Index(idx))+T(1))
				} else {
					acc.Store(Index(idx), T(1))
				}
			}
		}
	}
}

// probeLoopPlusPair is innerKernel.probeDot with PlusPair inlined. A
// scattered key's state byte is Allowed = 1, so each match adds it without
// a branch and the sum is the match count.
func probeLoopPlusPair[T loopNumeric](state []accum.State, value []T, amax Index, bIdx []Index, bVal []T) (T, bool) {
	var acc T
	for _, k := range bIdx {
		if k > amax {
			break
		}
		acc += T(state[k])
	}
	return acc, acc != 0
}

// opLoopsPlusPair bundles the PlusPair loop set for element type T.
func opLoopsPlusPair[T loopNumeric]() opLoops[T] {
	return opLoops[T]{
		msaCount:    msaCountLoopPlusPair[T],
		msaC:        msaCLoopPlusPair[T],
		hash:        hashLoopPlusPair[T],
		hashC:       hashCLoopPlusPair[T],
		mcaMerge:    mcaMergeLoopPlusPair[T],
		innerProbe:  probeLoopPlusPair[T],
		innerNoAVal: true,
	}
}

// ----- PlusFirst: Add(x, y) = x + y; Mul(x, y) = x -----

// msaLoopPlusFirst is msaKernel.numericRow's scatter with PlusFirst inlined.
func msaLoopPlusFirst[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		av := a.Val[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
		for _, j := range bCol {
			switch acc.State(j) {
			case accum.Allowed:
				acc.Store(j, av)
			case accum.Set:
				acc.SetValue(j, acc.Value(j)+av)
			}
		}
	}
}

// msaCLoopPlusFirst is msaKernel.numericRowC's scatter with PlusFirst inlined.
func msaCLoopPlusFirst[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		av := a.Val[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
		for _, j := range bCol {
			switch acc.State(j) {
			case accum.NotAllowed: // default-allowed under complement
				acc.StoreC(j, av)
			case accum.Set:
				acc.SetValue(j, acc.Value(j)+av)
			}
		}
	}
}

// hashLoopPlusFirst is hashKernel.numericRow's scatter with PlusFirst inlined.
func hashLoopPlusFirst[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		av := a.Val[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
		for _, j := range bCol {
			slot, st := acc.Probe(j)
			switch st {
			case accum.Allowed:
				acc.StoreAt(slot, av)
			case accum.Set:
				acc.SetValueAt(slot, acc.ValueAt(slot)+av)
			}
		}
	}
}

// hashCLoopPlusFirst is hashKernel.numericRowC's scatter with PlusFirst inlined.
func hashCLoopPlusFirst[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		av := a.Val[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
		for _, j := range bCol {
			slot, st := acc.ProbeC(j)
			switch st {
			case accum.NotAllowed: // absent: allowed under complement
				acc.InsertNewAtC(slot, j, av)
			case accum.Set:
				acc.SetValueAt(slot, acc.ValueAt(slot)+av)
			}
		}
	}
}

// mcaMergeLoopPlusFirst is mcaKernel.numericRow's CSR merge walk with PlusFirst inlined.
func mcaMergeLoopPlusFirst[T loopNumeric](acc *accum.MCA[T], a, b *matrix.CSR[T], i Index, mrow []Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		av := a.Val[kk]
		bi, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		for idx, j := range mrow {
			for bi < bHi && b.Col[bi] < j {
				bi++
			}
			if bi >= bHi {
				break
			}
			if b.Col[bi] == j {
				if acc.State(Index(idx)) == accum.Set {
					acc.SetValue(Index(idx), acc.Value(Index(idx))+av)
				} else {
					acc.Store(Index(idx), av)
				}
			}
		}
	}
}

// probeLoopPlusFirst is innerKernel.probeDot with PlusFirst inlined.
func probeLoopPlusFirst[T loopNumeric](state []accum.State, value []T, amax Index, bIdx []Index, bVal []T) (T, bool) {
	var acc T
	found := false
	for _, k := range bIdx {
		if k > amax {
			break
		}
		if state[k] != accum.Allowed {
			continue
		}
		v := value[k]
		if found {
			acc = acc + v
		} else {
			acc = v
			found = true
		}
	}
	return acc, found
}

// opLoopsPlusFirst bundles the PlusFirst loop set for element type T.
func opLoopsPlusFirst[T loopNumeric]() opLoops[T] {
	return opLoops[T]{
		msa:         msaLoopPlusFirst[T],
		msaC:        msaCLoopPlusFirst[T],
		hash:        hashLoopPlusFirst[T],
		hashC:       hashCLoopPlusFirst[T],
		mcaMerge:    mcaMergeLoopPlusFirst[T],
		innerProbe:  probeLoopPlusFirst[T],
		innerNoAVal: false,
	}
}

// ----- PlusSecond: Add(x, y) = x + y; Mul(x, y) = y -----

// msaLoopPlusSecond is msaKernel.numericRow's scatter with PlusSecond inlined.
func msaLoopPlusSecond[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
		bVal := b.Val[bLo:bHi]
		bVal = bVal[:len(bCol)]
		for p, j := range bCol {
			switch acc.State(j) {
			case accum.Allowed:
				acc.Store(j, bVal[p])
			case accum.Set:
				acc.SetValue(j, acc.Value(j)+bVal[p])
			}
		}
	}
}

// msaCLoopPlusSecond is msaKernel.numericRowC's scatter with PlusSecond inlined.
func msaCLoopPlusSecond[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
		bVal := b.Val[bLo:bHi]
		bVal = bVal[:len(bCol)]
		for p, j := range bCol {
			switch acc.State(j) {
			case accum.NotAllowed: // default-allowed under complement
				acc.StoreC(j, bVal[p])
			case accum.Set:
				acc.SetValue(j, acc.Value(j)+bVal[p])
			}
		}
	}
}

// hashLoopPlusSecond is hashKernel.numericRow's scatter with PlusSecond inlined.
func hashLoopPlusSecond[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
		bVal := b.Val[bLo:bHi]
		bVal = bVal[:len(bCol)]
		for p, j := range bCol {
			slot, st := acc.Probe(j)
			switch st {
			case accum.Allowed:
				acc.StoreAt(slot, bVal[p])
			case accum.Set:
				acc.SetValueAt(slot, acc.ValueAt(slot)+bVal[p])
			}
		}
	}
}

// hashCLoopPlusSecond is hashKernel.numericRowC's scatter with PlusSecond inlined.
func hashCLoopPlusSecond[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
		bVal := b.Val[bLo:bHi]
		bVal = bVal[:len(bCol)]
		for p, j := range bCol {
			slot, st := acc.ProbeC(j)
			switch st {
			case accum.NotAllowed: // absent: allowed under complement
				acc.InsertNewAtC(slot, j, bVal[p])
			case accum.Set:
				acc.SetValueAt(slot, acc.ValueAt(slot)+bVal[p])
			}
		}
	}
}

// mcaMergeLoopPlusSecond is mcaKernel.numericRow's CSR merge walk with PlusSecond inlined.
func mcaMergeLoopPlusSecond[T loopNumeric](acc *accum.MCA[T], a, b *matrix.CSR[T], i Index, mrow []Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		bi, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		for idx, j := range mrow {
			for bi < bHi && b.Col[bi] < j {
				bi++
			}
			if bi >= bHi {
				break
			}
			if b.Col[bi] == j {
				if acc.State(Index(idx)) == accum.Set {
					acc.SetValue(Index(idx), acc.Value(Index(idx))+b.Val[bi])
				} else {
					acc.Store(Index(idx), b.Val[bi])
				}
			}
		}
	}
}

// probeLoopPlusSecond is innerKernel.probeDot with PlusSecond inlined.
func probeLoopPlusSecond[T loopNumeric](state []accum.State, value []T, amax Index, bIdx []Index, bVal []T) (T, bool) {
	var acc T
	found := false
	bVal = bVal[:len(bIdx)]
	for p, k := range bIdx {
		if k > amax {
			break
		}
		if state[k] != accum.Allowed {
			continue
		}
		v := bVal[p]
		if found {
			acc = acc + v
		} else {
			acc = v
			found = true
		}
	}
	return acc, found
}

// opLoopsPlusSecond bundles the PlusSecond loop set for element type T.
func opLoopsPlusSecond[T loopNumeric]() opLoops[T] {
	return opLoops[T]{
		msa:         msaLoopPlusSecond[T],
		msaC:        msaCLoopPlusSecond[T],
		hash:        hashLoopPlusSecond[T],
		hashC:       hashCLoopPlusSecond[T],
		mcaMerge:    mcaMergeLoopPlusSecond[T],
		innerProbe:  probeLoopPlusSecond[T],
		innerNoAVal: true,
	}
}

// ----- MinPlus: Add(x, y) = min(x, y); Mul(x, y) = x + y -----

// msaLoopMinPlus is msaKernel.numericRow's scatter with MinPlus inlined.
func msaLoopMinPlus[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
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
				acc.Store(j, av+bVal[p])
			case accum.Set:
				acc.SetValue(j, addMin(acc.Value(j), av+bVal[p]))
			}
		}
	}
}

// msaCLoopMinPlus is msaKernel.numericRowC's scatter with MinPlus inlined.
func msaCLoopMinPlus[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
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
				acc.StoreC(j, av+bVal[p])
			case accum.Set:
				acc.SetValue(j, addMin(acc.Value(j), av+bVal[p]))
			}
		}
	}
}

// hashLoopMinPlus is hashKernel.numericRow's scatter with MinPlus inlined.
func hashLoopMinPlus[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
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
				acc.StoreAt(slot, av+bVal[p])
			case accum.Set:
				acc.SetValueAt(slot, addMin(acc.ValueAt(slot), av+bVal[p]))
			}
		}
	}
}

// hashCLoopMinPlus is hashKernel.numericRowC's scatter with MinPlus inlined.
func hashCLoopMinPlus[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
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
				acc.InsertNewAtC(slot, j, av+bVal[p])
			case accum.Set:
				acc.SetValueAt(slot, addMin(acc.ValueAt(slot), av+bVal[p]))
			}
		}
	}
}

// mcaMergeLoopMinPlus is mcaKernel.numericRow's CSR merge walk with MinPlus inlined.
func mcaMergeLoopMinPlus[T loopNumeric](acc *accum.MCA[T], a, b *matrix.CSR[T], i Index, mrow []Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		av := a.Val[kk]
		bi, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		for idx, j := range mrow {
			for bi < bHi && b.Col[bi] < j {
				bi++
			}
			if bi >= bHi {
				break
			}
			if b.Col[bi] == j {
				if acc.State(Index(idx)) == accum.Set {
					acc.SetValue(Index(idx), addMin(acc.Value(Index(idx)), av+b.Val[bi]))
				} else {
					acc.Store(Index(idx), av+b.Val[bi])
				}
			}
		}
	}
}

// probeLoopMinPlus is innerKernel.probeDot with MinPlus inlined.
func probeLoopMinPlus[T loopNumeric](state []accum.State, value []T, amax Index, bIdx []Index, bVal []T) (T, bool) {
	var acc T
	found := false
	bVal = bVal[:len(bIdx)]
	for p, k := range bIdx {
		if k > amax {
			break
		}
		if state[k] != accum.Allowed {
			continue
		}
		v := value[k] + bVal[p]
		if found {
			acc = addMin(acc, v)
		} else {
			acc = v
			found = true
		}
	}
	return acc, found
}

// opLoopsMinPlus bundles the MinPlus loop set for element type T.
func opLoopsMinPlus[T loopNumeric]() opLoops[T] {
	return opLoops[T]{
		msa:         msaLoopMinPlus[T],
		msaC:        msaCLoopMinPlus[T],
		hash:        hashLoopMinPlus[T],
		hashC:       hashCLoopMinPlus[T],
		mcaMerge:    mcaMergeLoopMinPlus[T],
		innerProbe:  probeLoopMinPlus[T],
		innerNoAVal: false,
	}
}

// ----- MaxTimes: Add(x, y) = max(x, y); Mul(x, y) = x * y -----

// msaLoopMaxTimes is msaKernel.numericRow's scatter with MaxTimes inlined.
func msaLoopMaxTimes[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
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
				acc.Store(j, av*bVal[p])
			case accum.Set:
				acc.SetValue(j, addMax(acc.Value(j), av*bVal[p]))
			}
		}
	}
}

// msaCLoopMaxTimes is msaKernel.numericRowC's scatter with MaxTimes inlined.
func msaCLoopMaxTimes[T loopNumeric](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
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
				acc.StoreC(j, av*bVal[p])
			case accum.Set:
				acc.SetValue(j, addMax(acc.Value(j), av*bVal[p]))
			}
		}
	}
}

// hashLoopMaxTimes is hashKernel.numericRow's scatter with MaxTimes inlined.
func hashLoopMaxTimes[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
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
				acc.StoreAt(slot, av*bVal[p])
			case accum.Set:
				acc.SetValueAt(slot, addMax(acc.ValueAt(slot), av*bVal[p]))
			}
		}
	}
}

// hashCLoopMaxTimes is hashKernel.numericRowC's scatter with MaxTimes inlined.
func hashCLoopMaxTimes[T loopNumeric](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
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
				acc.InsertNewAtC(slot, j, av*bVal[p])
			case accum.Set:
				acc.SetValueAt(slot, addMax(acc.ValueAt(slot), av*bVal[p]))
			}
		}
	}
}

// mcaMergeLoopMaxTimes is mcaKernel.numericRow's CSR merge walk with MaxTimes inlined.
func mcaMergeLoopMaxTimes[T loopNumeric](acc *accum.MCA[T], a, b *matrix.CSR[T], i Index, mrow []Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		av := a.Val[kk]
		bi, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		for idx, j := range mrow {
			for bi < bHi && b.Col[bi] < j {
				bi++
			}
			if bi >= bHi {
				break
			}
			if b.Col[bi] == j {
				if acc.State(Index(idx)) == accum.Set {
					acc.SetValue(Index(idx), addMax(acc.Value(Index(idx)), av*b.Val[bi]))
				} else {
					acc.Store(Index(idx), av*b.Val[bi])
				}
			}
		}
	}
}

// probeLoopMaxTimes is innerKernel.probeDot with MaxTimes inlined.
func probeLoopMaxTimes[T loopNumeric](state []accum.State, value []T, amax Index, bIdx []Index, bVal []T) (T, bool) {
	var acc T
	found := false
	bVal = bVal[:len(bIdx)]
	for p, k := range bIdx {
		if k > amax {
			break
		}
		if state[k] != accum.Allowed {
			continue
		}
		v := value[k] * bVal[p]
		if found {
			acc = addMax(acc, v)
		} else {
			acc = v
			found = true
		}
	}
	return acc, found
}

// opLoopsMaxTimes bundles the MaxTimes loop set for element type T.
func opLoopsMaxTimes[T loopNumeric]() opLoops[T] {
	return opLoops[T]{
		msa:         msaLoopMaxTimes[T],
		msaC:        msaCLoopMaxTimes[T],
		hash:        hashLoopMaxTimes[T],
		hashC:       hashCLoopMaxTimes[T],
		mcaMerge:    mcaMergeLoopMaxTimes[T],
		innerProbe:  probeLoopMaxTimes[T],
		innerNoAVal: false,
	}
}

// ----- OrAnd: Add(x, y) = x || y; Mul(x, y) = x && y -----

// msaLoopOrAnd is msaKernel.numericRow's scatter with OrAnd inlined.
func msaLoopOrAnd[T loopBool](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
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
				acc.Store(j, av && bVal[p])
			case accum.Set:
				acc.SetValue(j, acc.Value(j) || av && bVal[p])
			}
		}
	}
}

// msaCLoopOrAnd is msaKernel.numericRowC's scatter with OrAnd inlined.
func msaCLoopOrAnd[T loopBool](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
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
				acc.StoreC(j, av && bVal[p])
			case accum.Set:
				acc.SetValue(j, acc.Value(j) || av && bVal[p])
			}
		}
	}
}

// hashLoopOrAnd is hashKernel.numericRow's scatter with OrAnd inlined.
func hashLoopOrAnd[T loopBool](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
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
				acc.StoreAt(slot, av && bVal[p])
			case accum.Set:
				acc.SetValueAt(slot, acc.ValueAt(slot) || av && bVal[p])
			}
		}
	}
}

// hashCLoopOrAnd is hashKernel.numericRowC's scatter with OrAnd inlined.
func hashCLoopOrAnd[T loopBool](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
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
				acc.InsertNewAtC(slot, j, av && bVal[p])
			case accum.Set:
				acc.SetValueAt(slot, acc.ValueAt(slot) || av && bVal[p])
			}
		}
	}
}

// mcaMergeLoopOrAnd is mcaKernel.numericRow's CSR merge walk with OrAnd inlined.
func mcaMergeLoopOrAnd[T loopBool](acc *accum.MCA[T], a, b *matrix.CSR[T], i Index, mrow []Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		av := a.Val[kk]
		bi, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		for idx, j := range mrow {
			for bi < bHi && b.Col[bi] < j {
				bi++
			}
			if bi >= bHi {
				break
			}
			if b.Col[bi] == j {
				if acc.State(Index(idx)) == accum.Set {
					acc.SetValue(Index(idx), acc.Value(Index(idx)) || av && b.Val[bi])
				} else {
					acc.Store(Index(idx), av && b.Val[bi])
				}
			}
		}
	}
}

// probeLoopOrAnd is innerKernel.probeDot with OrAnd inlined.
func probeLoopOrAnd[T loopBool](state []accum.State, value []T, amax Index, bIdx []Index, bVal []T) (T, bool) {
	var acc T
	found := false
	bVal = bVal[:len(bIdx)]
	for p, k := range bIdx {
		if k > amax {
			break
		}
		if state[k] != accum.Allowed {
			continue
		}
		v := value[k] && bVal[p]
		if found {
			acc = acc || v
		} else {
			acc = v
			found = true
		}
	}
	return acc, found
}

// opLoopsOrAnd bundles the OrAnd loop set for element type T.
func opLoopsOrAnd[T loopBool]() opLoops[T] {
	return opLoops[T]{
		msa:         msaLoopOrAnd[T],
		msaC:        msaCLoopOrAnd[T],
		hash:        hashLoopOrAnd[T],
		hashC:       hashCLoopOrAnd[T],
		mcaMerge:    mcaMergeLoopOrAnd[T],
		innerProbe:  probeLoopOrAnd[T],
		innerNoAVal: false,
	}
}
