package core

import (
	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

//go:generate go run genloops.go

// opLoops bundles the numeric scatter/probe loops of one semiring, and
// every kernel row that multiplies calls its entry once. Interface-method
// calls on an operator type parameter stay indirect under the Go
// compiler's gcshape stenciling (they go through the instantiation
// dictionary), so the kernels carry no operator type at all. Plain
// arithmetic on a numeric-constrained type parameter, by contrast,
// compiles to direct machine instructions: loops_gen.go instantiates each
// hot loop once per named operator with the Add/Mul expressions spelled
// out, which costs one indirect call per row instead of two per flop.
//
// A custom semiring gets funcLoops, the same loops calling its Add/Mul
// func fields. The two sets share their operation order exactly, so they
// are bit-identical; the plus-pair msaCount and innerProbe loops depart
// from that structure, but their integer-valued counts are exact, so
// their output is too.
//
// The Heap/HeapDot kernels have no loop entry here: their multiply-add sits
// under a heap pop, so there is no inner sweep to batch, and they call the
// semiring's func fields directly.
type opLoops[T any] struct {
	msa  func(acc *accum.MSA[T], a, b *matrix.CSR[T], i Index)
	msaC func(acc *accum.MSA[T], a, b *matrix.CSR[T], i Index)
	// msaCount, set instead of msa for plus-pair, runs a whole
	// non-complemented numeric row as a branch-free counting scatter (see
	// accum.MSA's counting mode) and returns the row's output length.
	msaCount func(acc *accum.MSA[T], a, b *matrix.CSR[T], i Index, mrow, col []Index, val []T) Index

	hash  func(acc *accum.Hash[T], a, b *matrix.CSR[T], i Index)
	hashC func(acc *accum.Hash[T], a, b *matrix.CSR[T], i Index)

	mcaMerge func(acc *accum.MCA[T], a, b *matrix.CSR[T], i Index, mrow []Index)

	// innerProbe is the Inner kernel's dot product of B's column against
	// A's row scattered into an MSA (see innerKernel). innerNoAVal marks an
	// operator whose Mul ignores A's value: the row scatter then writes
	// states only.
	innerProbe  func(state []accum.State, value []T, amax Index, bIdx []Index, bVal []T) (T, bool)
	innerNoAVal bool
}

// funcLoops returns the loop set of a custom semiring: the generated loops'
// structure and operation order, with Add/Mul called through sr's func
// fields. Its closures are built once per call, never per row.
func funcLoops[T any](sr semiring.Semiring[T]) opLoops[T] {
	add, mul := sr.Add, sr.Mul
	return opLoops[T]{
		msa: func(acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
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
						acc.Store(j, mul(av, bVal[p]))
					case accum.Set:
						acc.SetValue(j, add(acc.Value(j), mul(av, bVal[p])))
					}
				}
			}
		},
		msaC: func(acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
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
						acc.StoreC(j, mul(av, bVal[p]))
					case accum.Set:
						acc.SetValue(j, add(acc.Value(j), mul(av, bVal[p])))
					}
				}
			}
		},
		hash: func(acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
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
						acc.StoreAt(slot, mul(av, bVal[p]))
					case accum.Set:
						acc.SetValueAt(slot, add(acc.ValueAt(slot), mul(av, bVal[p])))
					}
				}
			}
		},
		hashC: func(acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
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
						acc.InsertNewAtC(slot, j, mul(av, bVal[p]))
					case accum.Set:
						acc.SetValueAt(slot, add(acc.ValueAt(slot), mul(av, bVal[p])))
					}
				}
			}
		},
		mcaMerge: func(acc *accum.MCA[T], a, b *matrix.CSR[T], i Index, mrow []Index) {
			for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
				kcol := a.Col[kk]
				av := a.Val[kk]
				bi, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
				// Enumerate the mask row; advance the B row iterator past
				// smaller columns (Algorithm 3 lines 4-8).
				for idx, j := range mrow {
					for bi < bHi && b.Col[bi] < j {
						bi++
					}
					if bi >= bHi {
						break
					}
					if b.Col[bi] == j {
						if acc.State(Index(idx)) == accum.Set {
							acc.SetValue(Index(idx), add(acc.Value(Index(idx)), mul(av, b.Val[bi])))
						} else {
							acc.Store(Index(idx), mul(av, b.Val[bi]))
						}
					}
				}
			}
		},
		// innerProbe combines the products of B's column with the scattered
		// A row in ascending k, stopping past amax. The bool reports whether
		// the patterns intersect at all.
		innerProbe: func(state []accum.State, value []T, amax Index, bIdx []Index, bVal []T) (T, bool) {
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
				v := mul(value[k], bVal[p])
				if found {
					acc = add(acc, v)
				} else {
					acc = v
					found = true
				}
			}
			return acc, found
		},
	}
}

// loopNumeric is the element-type constraint of the generated numeric
// loops: arithmetic and comparisons on T compile to direct instructions.
type loopNumeric interface{ ~int64 | ~float64 }

// loopBool is the element-type constraint of the generated boolean loops.
type loopBool interface{ ~bool }

// addMin is the min monoid used by the generated MinPlus loops. It must
// match semiring.MinPlusF64.Add exactly (NOT the min builtin, whose NaN
// handling differs) so the generated loops stay bit-identical to funcLoops.
func addMin[T loopNumeric](x, y T) T {
	if x < y {
		return x
	}
	return y
}

// addMax is the max monoid used by the generated MaxTimes loops; it must
// match semiring.MaxTimesF64.Add exactly (see addMin).
func addMax[T loopNumeric](x, y T) T {
	if x > y {
		return x
	}
	return y
}
