package core

import (
	"fmt"
	"sort"

	"repro/internal/matrix"
)

// MaskRep selects how kernels answer the per-row membership question "is
// column j in the mask row?" (§5.2, §5.4 exploit mask structure per row; the
// representation decides the probe's cost):
//
//	RepCSR     probe the sorted CSR row (merge or binary search) — the
//	           seed behavior, best for sparse mask rows
//	RepBitmap  scatter the row into a per-worker bitmap (one bit per
//	           column, pooled words), then probe in O(1) — pays when the
//	           same row is probed many times (dense masks, multi-entry A
//	           rows) where repeated merges or binary searches dominate
//	RepDense   direct-index contiguous rows: a row that is a run [lo,hi)
//	           needs no scatter at all — membership is a range check and
//	           the mask position of j is j-lo; non-run rows fall back to
//	           the CSR probe row by row
//
// RepAuto defers the choice: the planner picks per row block from its
// density statistics, and the fixed-variant entry points resolve one global
// representation from aggregate mask shape. All representations produce
// bit-identical output — values accumulate in the same floating-point order
// regardless of how membership is answered — so selection is purely a
// performance decision.
//
// Complement is native to every representation: a complemented probe is
// `!contains(j)`, so no kernel materializes an explicit complement pattern.
type MaskRep uint8

// Mask representations.
const (
	RepAuto MaskRep = iota
	RepCSR
	RepBitmap
	RepDense
)

// String returns the representation's short name.
func (r MaskRep) String() string {
	switch r {
	case RepAuto:
		return "auto"
	case RepCSR:
		return "csr"
	case RepBitmap:
		return "bitmap"
	case RepDense:
		return "dense"
	}
	return fmt.Sprintf("MaskRep(%d)", uint8(r))
}

// Representation-selection thresholds. The bitmap's O(nnz(mask row)) scatter
// and clear only repay themselves when the CSR probe would be repeated or
// deep; the dense direct-index path needs rows that actually are runs. The
// numbers come from a CSR-vs-bitmap study whose dense-mask shapes
// BenchmarkMaskRep (bench_test.go) re-measures: MCA's per-A-entry mask
// merge loses ~2.6× to the bitmap on flat-degree dense masks but the bitmap
// *loses* on skewed masks with small average rows, and Heap's merge never
// loses to the bitmap in practice (the blind-push probe forfeits the merge's
// early exits), so Heap is excluded from automatic bitmap selection
// entirely.
const (
	// bitmapMinMaskRow is the minimum average mask-row size for the MCA
	// bitmap: below it, merges are short and the scatter overhead wins
	// nothing.
	bitmapMinMaskRow = 32
	// bitmapMinARow is the minimum average A-row size for MCA, whose CSR
	// probe is a per-A-entry merge of the whole mask row: the bitmap's
	// advantage grows with the number of merges it replaces.
	bitmapMinARow = 4
	// hashBitmapMinMaskRow is the Hash auto threshold: the CSR path
	// pre-inserts every mask entry into a 4×nnz(mask row) table, so the
	// bitmap pays once rows are long enough that the table build dominates.
	hashBitmapMinMaskRow = 64
	// denseRunNum/denseRunDen: the fraction of non-empty mask rows that must
	// be contiguous runs before the dense direct-index representation is
	// selected (15/16; stray non-run rows fall back per row).
	denseRunNum, denseRunDen = 15, 16
)

// SupportedMaskRep demotes a representation the algorithm cannot exploit to
// the one it actually runs:
//
//   - MSA's dense state array is already a direct-index structure, so a
//     bitmap adds no information; only the dense-run representation (which
//     skips the mask scatter entirely) changes its execution.
//   - Inner is driven *by* the mask in normal mode — it iterates mask
//     entries rather than probing them — so representations only matter to
//     its complemented form.
//
// Keeping the demotion here (rather than erroring) lets a block carry any
// representation and have its kernel take what it can use.
func SupportedMaskRep(alg Algorithm, rep MaskRep, complement bool) MaskRep {
	switch alg {
	case MSA:
		if rep == RepBitmap {
			return RepCSR
		}
	case Inner:
		if !complement {
			return RepCSR
		}
	}
	return rep
}

// AutoMaskRepRatio picks the representation for one row range from its
// density statistics: rows and maskNNZ/aNNZ are the range's row count and
// entry counts, runRows/nonEmptyRows the number of mask rows that are
// contiguous runs and non-empty (pass 0/0 when row sortedness is unknown —
// the run check is only exact on sorted rows). The planner calls it per
// block; the fixed-variant entry points call it once for the whole row
// space, through resolveRep.
//
// Representation cost ratios scale the density thresholds
// (planner.Model's BitmapProbeRatio and DenseUnit): bitmapRatio is the
// bitmap-vs-CSR probe cost ratio (above 1 the bitmap is relatively
// expensive, so it needs proportionally denser mask rows before it pays)
// and denseRatio the dense-direct-index-vs-CSR ratio, scaling the dense-run
// path's minimum average row the same way. Ratios of 1 (or anything
// non-positive) reproduce the hand-tuned thresholds exactly; the planner
// passes its model's fitted ratios.
func AutoMaskRepRatio(alg Algorithm, complement bool, rows, maskNNZ, aNNZ, runRows, nonEmptyRows int64, bitmapRatio, denseRatio float64) MaskRep {
	if rows <= 0 || maskNNZ == 0 {
		return RepCSR
	}
	if !(bitmapRatio > 0) {
		bitmapRatio = 1
	}
	if !(denseRatio > 0) {
		denseRatio = 1
	}
	avgM := float64(maskNNZ / rows)
	if nonEmptyRows > 0 && runRows*denseRunDen >= nonEmptyRows*denseRunNum && avgM >= 4*denseRatio {
		return SupportedMaskRep(alg, RepDense, complement)
	}
	avgA := aNNZ / rows
	switch alg {
	case Hash:
		if avgM >= hashBitmapMinMaskRow*bitmapRatio {
			return RepBitmap
		}
	case MCA:
		if avgM >= bitmapMinMaskRow*bitmapRatio && avgA >= bitmapMinARow {
			return RepBitmap
		}
	case Inner:
		if complement && avgM >= hashBitmapMinMaskRow*bitmapRatio {
			return RepBitmap
		}
	}
	// Heap/HeapDot deliberately never auto-select the bitmap: measurements
	// show the merge's frontier skipping beats O(1) probes with blind
	// pushes. A hand-built ExecBlock can still run it.
	return RepCSR
}

// resolveRep chooses a concrete representation for the row range [lo, hi)
// of the fixed-variant path, consulting the mask and A row pointers for
// local entry counts. Run detection is skipped (runRows=0) because
// sortedness is not established here; the planner, which verifies
// sortedness, passes its per-block choice instead via ExecBlock.Rep.
//
// Sortedness guard. Hash legally accepts unsorted mask rows (MCA, Heap,
// HeapDot and Inner already carry a sorted-rows precondition), but its
// bitmap path's sort-based gather would emit rows in a different order
// than the CSR path's mask-order gather, breaking the bit-identity
// contract. resolveRep therefore verifies the range with an O(nnz)
// Pattern.RowsSortedIn scan before honoring the Hash bitmap and demotes to
// RepCSR otherwise. (RepDense, whose contiguity check needs sorted rows
// too, never comes out of here: it needs run counts.) Planner-emitted
// block reps skip this — Analyze already verified sortedness for the whole
// plan (see MaskedSpGEMMBlocked).
func resolveRep[T any](alg Algorithm, m *matrix.Pattern, a *matrix.CSR[T], lo, hi Index, complement bool) MaskRep {
	rows := int64(hi - lo)
	var maskNNZ, aNNZ int64
	if int(hi) < len(m.RowPtr) {
		maskNNZ = int64(m.RowPtr[hi] - m.RowPtr[lo])
	}
	if int(hi) < len(a.RowPtr) {
		aNNZ = int64(a.RowPtr[hi] - a.RowPtr[lo])
	}
	rep := AutoMaskRepRatio(alg, complement, rows, maskNNZ, aNNZ, 0, 0, 1, 1)
	if alg == Hash && rep == RepBitmap && !m.RowsSortedIn(lo, hi) {
		rep = RepCSR
	}
	return rep
}

// maskProbe is the per-worker MaskView: it materializes one mask row at a
// time in the selected representation and answers membership probes against
// it. Kernels bracket each row with begin/end; end restores the probe's
// scratch (bitmap bits) so pooled storage stays clean.
type maskProbe struct {
	m   *matrix.Pattern
	rep MaskRep // RepCSR, RepBitmap or RepDense (never RepAuto)
	bm  *matrix.Bitmap

	row    []Index // current mask row
	lo, hi Index   // dense run bounds, valid when runOK
	runOK  bool
}

// newMaskProbe builds a probe for the given resolved representation; bitmap
// word storage comes from the workspace arena when ws is non-nil.
func newMaskProbe(m *matrix.Pattern, rep MaskRep, ws *Workspaces) *maskProbe {
	p := &maskProbe{m: m, rep: rep}
	if rep == RepBitmap {
		p.bm = wsGetBitmap(ws, int(m.NCols))
	}
	return p
}

// recycle returns the probe's pooled storage to the arena.
func (p *maskProbe) recycle(ws *Workspaces) {
	if p.bm != nil {
		wsPutBitmap(ws, p.bm)
		p.bm = nil
	}
}

// begin loads mask row i into the probe's representation.
func (p *maskProbe) begin(i Index) {
	p.row = p.m.Row(i)
	switch p.rep {
	case RepBitmap:
		p.bm.SetAll(p.row)
	case RepDense:
		p.lo, p.hi, p.runOK = matrix.RowRun(p.row)
	}
}

// end releases the row loaded by begin (clears scattered bitmap bits).
func (p *maskProbe) end() {
	if p.rep == RepBitmap {
		p.bm.ClearAll(p.row)
	}
}

// contains reports whether column j is present in the current row.
func (p *maskProbe) contains(j Index) bool {
	switch p.rep {
	case RepBitmap:
		return p.bm.Contains(j)
	case RepDense:
		if p.runOK {
			return j >= p.lo && j < p.hi
		}
	}
	return containsSorted(p.row, j)
}

// pos returns the position of column j within the current row; j must be
// present (contains(j) == true). Dense runs answer with arithmetic, the
// other representations with a binary search of the sorted row.
func (p *maskProbe) pos(j Index) Index {
	if p.rep == RepDense && p.runOK {
		return j - p.lo
	}
	return Index(sort.Search(len(p.row), func(k int) bool { return p.row[k] >= j }))
}

// containsSorted is the CSR probe: binary search over a sorted row, with a
// short linear scan for the tiny rows where a search setup costs more than
// the comparisons it saves.
func containsSorted(row []Index, j Index) bool {
	if len(row) <= 8 {
		for _, c := range row {
			if c >= j {
				return c == j
			}
		}
		return false
	}
	k := sort.Search(len(row), func(k int) bool { return row[k] >= j })
	return k < len(row) && row[k] == j
}
