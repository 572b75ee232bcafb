package core

import (
	"slices"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// Skew heuristic: a profile is worth cost-balancing when one row can hold a
// whole equal-row chunk hostage — its cost exceeds schedSkewFactor× the mean
// row cost — and the row space is large enough for scheduling to matter.
const (
	schedSkewFactor = 8
	schedMinRows    = 256
)

// RowCosts is the per-row cost profile cost-balanced scheduling consumes.
// The planner fills one during its analysis sweep (the flops it already
// gathers per row, which used to be discarded after aggregation); callers
// pinning a variant can build one with ComputeRowCosts.
type RowCosts struct {
	// Prefix is the monotone prefix sum of per-row costs, length nrows+1:
	// Prefix[i+1]-Prefix[i] is the estimated cost of row i (flops plus mask
	// entries plus one, so empty rows still advance the schedule).
	Prefix []int64
	// MaxRow is the largest single-row cost, the skew diagnostic.
	MaxRow int64
	// Skewed reports the skew verdict: the drivers claim equal-cost spans
	// only when it is set, and equal-row chunks otherwise.
	Skewed bool
}

// NewRowCosts wraps a filled prefix array, computing the skew verdict.
func NewRowCosts(prefix []int64, maxRow int64) *RowCosts {
	rc := &RowCosts{Prefix: prefix, MaxRow: maxRow}
	if n := len(prefix) - 1; n >= schedMinRows {
		total := prefix[n] - prefix[0]
		rc.Skewed = maxRow*int64(n) > schedSkewFactor*total
	}
	return rc
}

// Total returns the summed cost of all rows.
func (rc *RowCosts) Total() int64 {
	if rc == nil || len(rc.Prefix) == 0 {
		return 0
	}
	return rc.Prefix[len(rc.Prefix)-1] - rc.Prefix[0]
}

// schedPrefix resolves the schedule of an nrows-row pass from the options'
// cost profile: its prefix to claim equal-cost spans over when the profile
// is skewed, or nil for equal-row chunks. A profile of the wrong length
// (operands changed under a cached plan) falls back to equal-row —
// scheduling is a hint, never a correctness input.
func schedPrefix(opt Options, nrows Index) []int64 {
	if rc := opt.RowCosts; rc != nil && rc.Skewed && len(rc.Prefix) == int(nrows)+1 {
		return rc.Prefix
	}
	return nil
}

// ComputeRowCosts gathers the per-row cost profile of C = M .* (A·B) in one
// parallel O(nnz(A)) sweep: cost_i = Σ_{A_ik≠0} nnz(B_k*) + nnz(M_i*) + 1.
// The planner computes the same profile as a by-product of its analysis;
// this entry point serves callers that pin a variant (bypassing the planner)
// but still want cost-balanced scheduling. Returns nil for degenerate
// operands. The profile is the same for every thread count.
//
// Workers claim the spans of matrix.RowSpans over A's row pointers, of
// about equal nnz(A) plus rows, since the sweep costs a row its entries of
// A.
func ComputeRowCosts(m, a, b *matrix.Pattern, threads int) *RowCosts {
	nrows := int(m.NRows)
	if nrows == 0 || len(m.RowPtr) == 0 || len(a.RowPtr) == 0 || len(b.RowPtr) == 0 {
		return nil
	}
	prefix := make([]int64, nrows+1)
	p := parallel.Threads(threads)
	maxPer := make([]int64, p)
	bounds := matrix.RowSpans(a.RowPtr[:nrows+1], threads)
	spans := len(bounds) - 1
	parallel.ForWorkers(nil, spans, min(p, spans), 1, func(id int, claim func() (lo, hi int, ok bool)) {
		maxRow := int64(0)
		for {
			s, _, ok := claim()
			if !ok {
				break
			}
			for i, end := bounds[s], bounds[s+1]; i < end; i++ {
				var fl int64
				for _, k := range a.Col[a.RowPtr[i]:a.RowPtr[i+1]] {
					fl += int64(b.RowPtr[k+1] - b.RowPtr[k])
				}
				c := fl + int64(m.RowPtr[i+1]-m.RowPtr[i]) + 1
				prefix[i] = c
				maxRow = max(maxRow, c)
			}
		}
		maxPer[id] = max(maxPer[id], maxRow)
	})
	prefix[nrows] = 0
	parallel.ExclusiveScanParallel(prefix, threads)
	return NewRowCosts(prefix, slices.Max(maxPer))
}
