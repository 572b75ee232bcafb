package core

import (
	"fmt"
	"math"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Instrumented operation counting. §5 states per-algorithm complexity
// bounds; this file re-implements each algorithm sequentially with explicit
// counters so tests can verify that measured operation counts respect those
// formulas — an executable version of the paper's analysis:
//
//	MSA:  O(ncols + nnz(m) + flops)            (§5.2)
//	Hash: O(nnz(m) + flops)                    (§5.3)
//	MCA:  O(nnz(u)·nnz(m) + flops)             (§5.4)
//	Heap: O(nnz(m) + log2(nnz(u))·flops)       (§5.5)
//	Inner (memory traffic): nnz(A) + nnz(M)·(1 + nnz(B)/n)  (§4.1)
//
// The instrumented implementations are deliberately independent of the
// optimized kernels (structured around the published pseudocode rather than
// the kernel code), so they double as a cross-check oracle.

// OpCounts aggregates the abstract operations of one masked SpGEMM run.
type OpCounts struct {
	// Products is the number of semiring multiplies evaluated.
	Products int64
	// AccumOps counts accumulator state-machine transitions (setAllowed,
	// insert attempts, removes).
	AccumOps int64
	// MaskScans counts mask entries examined (merging and gathering).
	MaskScans int64
	// HeapOps counts heap pushes and pops.
	HeapOps int64
	// RowsTouched counts B-row entries iterated.
	RowsTouched int64
}

// Total sums all counters.
func (o OpCounts) Total() int64 {
	return o.Products + o.AccumOps + o.MaskScans + o.HeapOps + o.RowsTouched
}

// PredictedBound returns the §5 asymptotic bound for the algorithm on the
// given operands (as an operation count; constant factors are checked by
// the tests, not predicted here).
func PredictedBound[T any](alg Algorithm, m *matrix.Pattern, a, b *matrix.CSR[T]) (int64, error) {
	nnzM := int64(m.NNZ())
	flops := Flops(a, b, 1)
	switch alg {
	case MSA:
		// ncols is paid once per worker, not per row; the per-row cost the
		// test checks is nnz(m) + flops plus one ncols initialization.
		return int64(b.NCols) + nnzM + flops, nil
	case Hash:
		return nnzM + flops, nil
	case MCA:
		// Σ_i nnz(A_i*)·nnz(M_i*) + flops.
		var cross int64
		for i := Index(0); i < a.NRows; i++ {
			cross += int64(a.RowPtr[i+1]-a.RowPtr[i]) * int64(m.RowPtr[i+1]-m.RowPtr[i])
		}
		return cross + flops, nil
	case Heap, HeapDot:
		// nnz(m) + log2(max row nnz(u)) · flops.
		maxU := int64(1)
		for i := Index(0); i < a.NRows; i++ {
			if d := int64(a.RowPtr[i+1] - a.RowPtr[i]); d > maxU {
				maxU = d
			}
		}
		logU := int64(math.Ceil(math.Log2(float64(maxU + 1))))
		if logU < 1 {
			logU = 1
		}
		return nnzM + logU*flops, nil
	case Inner:
		// §4.1 memory traffic: nnz(A) + nnz(M)(1 + nnz(B)/n); the operation
		// count analog bounds merge steps per dot by nnz(A_i*)+nnz(B_*j).
		n := int64(b.NCols)
		if n == 0 {
			n = 1
		}
		return int64(a.NNZ()) + nnzM*(1+int64(b.NNZ())/n), nil
	}
	return 0, fmt.Errorf("core: no complexity model for %s", alg)
}

// CountOps runs an instrumented sequential masked SpGEMM with the chosen
// algorithm, returning both the product and the operation counters.
// Non-complemented masks only (the §5 formulas are stated for that case).
func CountOps[T any](alg Algorithm, m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T]) (*matrix.CSR[T], OpCounts, error) {
	if err := checkDims(m, a, b); err != nil {
		return nil, OpCounts{}, err
	}
	switch alg {
	case MSA, Hash:
		return countScatter(m, a, b, sr)
	case MCA:
		return countMCA(m, a, b, sr)
	case Heap:
		return countHeap(m, a, b, sr, 1)
	case HeapDot:
		return countHeap(m, a, b, sr, math.MaxInt32)
	case Inner:
		return countInner(m, a, b, sr)
	}
	return nil, OpCounts{}, fmt.Errorf("core: no instrumented implementation for %s", alg)
}

// countScatter covers MSA and Hash: both perform the same abstract
// operations (scatter through the tri-state machine, gather over the
// mask); they differ in memory layout, not operation count.
func countScatter[T any](m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T]) (*matrix.CSR[T], OpCounts, error) {
	var ops OpCounts
	state := make(map[Index]T)
	allowed := make(map[Index]bool)
	out := &matrix.CSR[T]{NRows: m.NRows, NCols: m.NCols, RowPtr: make([]Index, m.NRows+1)}
	for i := Index(0); i < m.NRows; i++ {
		mrow := m.Row(i)
		for _, j := range mrow {
			allowed[j] = true
			ops.AccumOps++ // setAllowed
		}
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			kcol := a.Col[kk]
			for p := b.RowPtr[kcol]; p < b.RowPtr[kcol+1]; p++ {
				j := b.Col[p]
				ops.RowsTouched++
				ops.AccumOps++ // insert attempt
				if !allowed[j] {
					continue
				}
				ops.Products++
				v := sr.Mul(a.Val[kk], b.Val[p])
				if old, ok := state[j]; ok {
					state[j] = sr.Add(old, v)
				} else {
					state[j] = v
				}
			}
		}
		for _, j := range mrow {
			ops.MaskScans++
			ops.AccumOps++ // remove
			if v, ok := state[j]; ok {
				out.Col = append(out.Col, j)
				out.Val = append(out.Val, v)
				delete(state, j)
			}
			delete(allowed, j)
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out, ops, nil
}

func countMCA[T any](m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T]) (*matrix.CSR[T], OpCounts, error) {
	var ops OpCounts
	out := &matrix.CSR[T]{NRows: m.NRows, NCols: m.NCols, RowPtr: make([]Index, m.NRows+1)}
	for i := Index(0); i < m.NRows; i++ {
		mrow := m.Row(i)
		vals := make([]T, len(mrow))
		set := make([]bool, len(mrow))
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			kcol := a.Col[kk]
			bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
			bi := bLo
			for idx, j := range mrow {
				ops.MaskScans++ // Algorithm 3 enumerates the mask per u_k
				for bi < bHi && b.Col[bi] < j {
					bi++
					ops.RowsTouched++
				}
				if bi >= bHi {
					break
				}
				if b.Col[bi] == j {
					ops.Products++
					ops.AccumOps++
					v := sr.Mul(a.Val[kk], b.Val[bi])
					if set[idx] {
						vals[idx] = sr.Add(vals[idx], v)
					} else {
						set[idx] = true
						vals[idx] = v
					}
				}
			}
		}
		for idx, j := range mrow {
			ops.MaskScans++
			ops.AccumOps++
			if set[idx] {
				out.Col = append(out.Col, j)
				out.Val = append(out.Val, vals[idx])
			}
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out, ops, nil
}

func countHeap[T any](m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], nInspect int32) (*matrix.CSR[T], OpCounts, error) {
	// Reuse the optimized kernel for the result but count abstract heap
	// operations with a parallel simulation: every B entry consumed costs
	// one pop and at most one push (log factor folded into HeapOps by
	// charging ceil(log2(heap size)) per operation).
	var ops OpCounts
	out := &matrix.CSR[T]{NRows: m.NRows, NCols: m.NCols, RowPtr: make([]Index, m.NRows+1)}
	k := &heapKernel[T]{m: m, a: a, b: b, add: sr.Add, mul: sr.Mul, nInspect: nInspect, pq: &accum.IterHeap{}}
	colBuf := make([]Index, 0)
	valBuf := make([]T, 0)
	for i := Index(0); i < m.NRows; i++ {
		mnnz := int(m.RowNNZ(i))
		if cap(colBuf) < mnnz {
			colBuf = make([]Index, mnnz)
			valBuf = make([]T, mnnz)
		}
		cnt := k.numericRow(i, colBuf[:mnnz], valBuf[:mnnz])
		out.Col = append(out.Col, colBuf[:cnt]...)
		out.Val = append(out.Val, valBuf[:cnt]...)
		out.RowPtr[i+1] = Index(len(out.Col))
		// Abstract counting per Algorithm 4: each element of
		// S = {B_kj | A_ik≠0} is popped once and pushed at most once.
		var rowFlops, rowU int64
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			kcol := a.Col[kk]
			rowFlops += int64(b.RowPtr[kcol+1] - b.RowPtr[kcol])
			rowU++
		}
		logU := int64(1)
		for x := rowU; x > 1; x >>= 1 {
			logU++
		}
		ops.HeapOps += 2 * rowFlops * logU
		ops.MaskScans += int64(mnnz)
		ops.Products += rowFlops // upper bound: each popped element may multiply
		ops.RowsTouched += rowFlops
	}
	return out, ops, nil
}

func countInner[T any](m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T]) (*matrix.CSR[T], OpCounts, error) {
	var ops OpCounts
	bcsc := matrix.ToCSC(b)
	out := &matrix.CSR[T]{NRows: m.NRows, NCols: m.NCols, RowPtr: make([]Index, m.NRows+1)}
	for i := Index(0); i < m.NRows; i++ {
		aLo, aHi := a.RowPtr[i], a.RowPtr[i+1]
		aIdx := a.Col[aLo:aHi]
		aVal := a.Val[aLo:aHi]
		for _, j := range m.Row(i) {
			ops.MaskScans++
			rows, vals := bcsc.Column(j)
			ai, bi := 0, 0
			var acc T
			found := false
			for ai < len(aIdx) && bi < len(rows) {
				ops.RowsTouched++ // one merge step
				switch {
				case aIdx[ai] == rows[bi]:
					ops.Products++
					v := sr.Mul(aVal[ai], vals[bi])
					if found {
						acc = sr.Add(acc, v)
					} else {
						acc, found = v, true
					}
					ai++
					bi++
				case aIdx[ai] < rows[bi]:
					ai++
				default:
					bi++
				}
			}
			if found {
				out.Col = append(out.Col, j)
				out.Val = append(out.Val, acc)
			}
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out, ops, nil
}
