// Package baseline reimplements the comparison targets of the paper's
// evaluation (§3, §8). SuiteSparse:GraphBLAS itself is a closed-source (to
// this offline environment) C library, so its two masked-SpGEMM strategies
// are rebuilt here following their published structure:
//
//   - SSDot mirrors GrB_mxm's dot-product path ("SS:DOT"): a pull-based
//     masked multiply that transposes B on every call (the overhead §8.4
//     attributes to the library) and intersects rows of A with rows of Bᵀ
//     using a binary-search (galloping) intersection rather than the linear
//     merge our Inner kernel uses.
//
//   - SSSaxpy mirrors the saxpy path ("SS:SAXPY"): Gustavson with a dense
//     SPA that computes the *full* unmasked row and applies the mask during
//     the final gather — the mask filters output, it is not part of the
//     accumulation state machine. This is the key algorithmic difference
//     from the paper's MSA, whose tri-state accumulator skips masked-out
//     products at insert time.
//
//   - PlainThenMask is the Figure-1 strawman: a complete unmasked SpGEMM
//     materialized, then element-wise masking.
//
// These preserve the algorithmic distinctions the paper measures, not
// SuiteSparse's constant factors; see DESIGN.md "Substitutions".
package baseline

import (
	"sort"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/semiring"
)

// Index mirrors matrix.Index.
type Index = matrix.Index

// Options configures a baseline call. It is the same type as core.Options,
// so one session-level thread budget, context and workspace arena govern
// the paper's variants and the SuiteSparse-style baselines alike. The
// baselines consume Threads, Grain, Complement and Ctx; Complement is
// supported by SSSaxpy (SS:GB supports complemented masks in its saxpy
// path) while SSDot ignores it and callers should treat SS:DOT as
// complement-incapable like the paper does (it is excluded from the BC
// comparison as prohibitively slow).
//
// Because the baselines predate error returns, a cancelled Ctx stops their
// loops early and the partial result is garbage; callers that pass a
// cancellable context must check opt.Err() after the call (the apps engine
// wrappers do).
type Options = core.Options

// SSDot computes C = M .* (A·B) with the dot-product strategy: B is
// transposed to CSR-of-Bᵀ (cost included, as in the library §8.4), then for
// every mask entry (i, j) the sparse dot A_i* · (Bᵀ)_j* is evaluated with a
// galloping intersection that binary-searches the longer operand.
func SSDot[T any](m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], opt Options) *matrix.CSR[T] {
	bt := matrix.Transpose(b) // per-call transpose, mirroring the library overhead
	nrows := m.NRows
	counts := make([]int64, nrows)
	type rowBuf struct {
		col []Index
		val []T
	}
	bufs := make([]rowBuf, nrows)
	parallel.ForChunks(opt.Ctx, int(nrows), opt.Workers(), opt.Grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ii := Index(i)
			aLo, aHi := a.RowPtr[ii], a.RowPtr[ii+1]
			if aLo == aHi {
				continue
			}
			aIdx := a.Col[aLo:aHi]
			aVal := a.Val[aLo:aHi]
			mrow := m.Row(ii)
			var cols []Index
			var vals []T
			for _, j := range mrow {
				bLo, bHi := bt.RowPtr[j], bt.RowPtr[j+1]
				v, ok := gallopDot(aIdx, aVal, bt.Col[bLo:bHi], bt.Val[bLo:bHi], sr)
				if ok {
					cols = append(cols, j)
					vals = append(vals, v)
				}
			}
			bufs[i] = rowBuf{cols, vals}
			counts[i] = int64(len(cols))
		}
	})
	return assembleRows(nrows, m.NCols, counts, func(i Index) ([]Index, []T) {
		return bufs[i].col, bufs[i].val
	}, opt)
}

// gallopDot intersects two sorted index lists, binary-searching the longer
// list for each element of the shorter — the strategy dot-product codes use
// when operand lengths are very unbalanced.
func gallopDot[T any](aIdx []Index, aVal []T, bIdx []Index, bVal []T, sr semiring.Semiring[T]) (T, bool) {
	var acc T
	found := false
	if len(aIdx) > len(bIdx) {
		aIdx, bIdx = bIdx, aIdx
		aVal, bVal = bVal, aVal
		// semiring multiply may be non-commutative (PlusSecond); swap back
		// inside the loop via a flag.
		return gallopDotSwapped(aIdx, aVal, bIdx, bVal, sr)
	}
	lo := 0
	for t, j := range aIdx {
		pos := lo + sort.Search(len(bIdx)-lo, func(x int) bool { return bIdx[lo+x] >= j })
		if pos < len(bIdx) && bIdx[pos] == j {
			v := sr.Mul(aVal[t], bVal[pos])
			if found {
				acc = sr.Add(acc, v)
			} else {
				acc, found = v, true
			}
			lo = pos + 1
		} else {
			lo = pos
		}
		if lo >= len(bIdx) {
			break
		}
	}
	return acc, found
}

// gallopDotSwapped is gallopDot with the operands swapped (a is the short
// list but holds B values), preserving Mul(aSide, bSide) argument order.
func gallopDotSwapped[T any](bShort []Index, bShortVal []T, aLong []Index, aLongVal []T, sr semiring.Semiring[T]) (T, bool) {
	var acc T
	found := false
	lo := 0
	for t, j := range bShort {
		pos := lo + sort.Search(len(aLong)-lo, func(x int) bool { return aLong[lo+x] >= j })
		if pos < len(aLong) && aLong[pos] == j {
			v := sr.Mul(aLongVal[pos], bShortVal[t])
			if found {
				acc = sr.Add(acc, v)
			} else {
				acc, found = v, true
			}
			lo = pos + 1
		} else {
			lo = pos
		}
		if lo >= len(aLong) {
			break
		}
	}
	return acc, found
}

// SSSaxpy computes C = M .* (A·B) (or ¬M per opt) with the saxpy strategy:
// a dense sparse-accumulator per worker computes the full unmasked row
// A_i*·B, then the gather step filters through the mask. Products for
// masked-out columns are computed and discarded — exactly the work the
// paper's mask-aware accumulators avoid.
func SSSaxpy[T any](m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], opt Options) *matrix.CSR[T] {
	nrows := m.NRows
	counts := make([]int64, nrows)
	type rowBuf struct {
		col []Index
		val []T
	}
	bufs := make([]rowBuf, nrows)
	parallel.ForWorkers(opt.Ctx, int(nrows), opt.Workers(), opt.Grain, func(_ int, claim func() (int, int, bool)) {
		val := make([]T, b.NCols)
		occupied := make([]bool, b.NCols)
		var touched []Index
		for {
			lo, hi, ok := claim()
			if !ok {
				return
			}
			for i := lo; i < hi; i++ {
				ii := Index(i)
				touched = touched[:0]
				// Full unmasked Gustavson row.
				for kk := a.RowPtr[ii]; kk < a.RowPtr[ii+1]; kk++ {
					k := a.Col[kk]
					av := a.Val[kk]
					for p := b.RowPtr[k]; p < b.RowPtr[k+1]; p++ {
						j := b.Col[p]
						v := sr.Mul(av, b.Val[p])
						if occupied[j] {
							val[j] = sr.Add(val[j], v)
						} else {
							occupied[j] = true
							val[j] = v
							touched = append(touched, j)
						}
					}
				}
				// Mask applied at gather time only.
				var cols []Index
				var vals []T
				mrow := m.Row(ii)
				if !opt.Complement {
					for _, j := range mrow {
						if occupied[j] {
							cols = append(cols, j)
							vals = append(vals, val[j])
						}
					}
				} else {
					sortIdx(touched)
					mi := 0
					for _, j := range touched {
						for mi < len(mrow) && mrow[mi] < j {
							mi++
						}
						if mi < len(mrow) && mrow[mi] == j {
							continue
						}
						cols = append(cols, j)
						vals = append(vals, val[j])
					}
				}
				for _, j := range touched {
					occupied[j] = false
				}
				bufs[i] = rowBuf{cols, vals}
				counts[i] = int64(len(cols))
			}
		}
	})
	return assembleRows(nrows, m.NCols, counts, func(i Index) ([]Index, []T) {
		return bufs[i].col, bufs[i].val
	}, opt)
}

// PlainThenMask materializes the full product A·B (hash-free dense-SPA
// Gustavson) and then applies the mask element-wise: the strawman of
// Figure 1 that does all the unnecessary work masking is meant to avoid.
func PlainThenMask[T any](m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], opt Options) *matrix.CSR[T] {
	full := SpGEMM(a, b, sr, opt)
	if opt.Complement {
		return complementMask(full, m)
	}
	return matrix.MaskPattern(full, m)
}

// SpGEMM is the plain (unmasked) Gustavson product with a dense SPA,
// row-parallel; the substrate both PlainThenMask and tests use.
func SpGEMM[T any](a, b *matrix.CSR[T], sr semiring.Semiring[T], opt Options) *matrix.CSR[T] {
	nrows := a.NRows
	counts := make([]int64, nrows)
	type rowBuf struct {
		col []Index
		val []T
	}
	bufs := make([]rowBuf, nrows)
	parallel.ForWorkers(opt.Ctx, int(nrows), opt.Workers(), opt.Grain, func(_ int, claim func() (int, int, bool)) {
		val := make([]T, b.NCols)
		occupied := make([]bool, b.NCols)
		var touched []Index
		for {
			lo, hi, ok := claim()
			if !ok {
				return
			}
			for i := lo; i < hi; i++ {
				ii := Index(i)
				touched = touched[:0]
				for kk := a.RowPtr[ii]; kk < a.RowPtr[ii+1]; kk++ {
					k := a.Col[kk]
					av := a.Val[kk]
					for p := b.RowPtr[k]; p < b.RowPtr[k+1]; p++ {
						j := b.Col[p]
						v := sr.Mul(av, b.Val[p])
						if occupied[j] {
							val[j] = sr.Add(val[j], v)
						} else {
							occupied[j] = true
							val[j] = v
							touched = append(touched, j)
						}
					}
				}
				sortIdx(touched)
				cols := append([]Index(nil), touched...)
				vals := make([]T, len(touched))
				for t, j := range touched {
					vals[t] = val[j]
					occupied[j] = false
				}
				bufs[i] = rowBuf{cols, vals}
				counts[i] = int64(len(cols))
			}
		}
	})
	return assembleRows(nrows, b.NCols, counts, func(i Index) ([]Index, []T) {
		return bufs[i].col, bufs[i].val
	}, opt)
}

// complementMask keeps entries of a whose positions are NOT in mask.
func complementMask[T any](a *matrix.CSR[T], mask *matrix.Pattern) *matrix.CSR[T] {
	out := &matrix.CSR[T]{NRows: a.NRows, NCols: a.NCols, RowPtr: make([]Index, a.NRows+1)}
	for i := Index(0); i < a.NRows; i++ {
		mrow := mask.Row(i)
		mi := 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.Col[k]
			for mi < len(mrow) && mrow[mi] < j {
				mi++
			}
			if mi < len(mrow) && mrow[mi] == j {
				continue
			}
			out.Col = append(out.Col, j)
			out.Val = append(out.Val, a.Val[k])
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out
}

// assembleRows concatenates per-row buffers into a CSR matrix.
func assembleRows[T any](nrows, ncols Index, counts []int64, row func(Index) ([]Index, []T), opt Options) *matrix.CSR[T] {
	offs := make([]int64, len(counts))
	copy(offs, counts)
	total := parallel.ExclusiveScan(offs)
	out := &matrix.CSR[T]{
		NRows:  nrows,
		NCols:  ncols,
		RowPtr: make([]Index, nrows+1),
		Col:    make([]Index, total),
		Val:    make([]T, total),
	}
	for i := Index(0); i < nrows; i++ {
		out.RowPtr[i] = Index(offs[i])
	}
	out.RowPtr[nrows] = Index(total)
	parallel.ForChunks(opt.Ctx, int(nrows), opt.Workers(), 512, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, vals := row(Index(i))
			copy(out.Col[offs[i]:], cols)
			copy(out.Val[offs[i]:], vals)
		}
	})
	return out
}

func sortIdx(s []Index) {
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
