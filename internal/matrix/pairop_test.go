package matrix_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// pairOperandDiff checks op against its definition for the graph g: X is
// DegreeTril(g), W lists every edge of X exactly once at the endpoint
// with the longer X row (the lower id on a tie), out-part first in X's
// order and in-part ascending, the flops are core.Flops(X, X), every row
// cost is Σ_{k ∈ W(r,:)} nnz(X(k,:)) + nnz(X(r,:)) + 1, so the costs
// total flops(W·X) + nnz(X) + n, and the count over W equals the count
// over X. It returns the first difference, or "".
func pairOperandDiff(op *matrix.PairOperand, g *matrix.CSR[float64]) string {
	x := op.X
	if diff := samePattern(x, matrix.DegreeTril(g, 1)); diff != "" {
		return "X is not DegreeTril(g): " + diff
	}
	n := x.NRows
	w := op.W
	if w.NRows != n || w.NCols != n || len(w.RowPtr) != int(n)+1 || w.NNZ() != x.NNZ() {
		return fmt.Sprintf("W is %dx%d with %d entries, want %dx%d with nnz(X) = %d", w.NRows, w.NCols, w.NNZ(), n, n, x.NNZ())
	}
	longer := func(u, v Index) bool { // u's X row is longer than v's, or as long with u < v
		du, dv := x.RowNNZ(u), x.RowNNZ(v)
		return du > dv || du == dv && u < v
	}
	for r := Index(0); r < n; r++ {
		var out, in []Index
		for _, k := range x.Row(r) {
			if longer(r, k) {
				out = append(out, k)
			}
		}
		for i := Index(0); i < n; i++ {
			if !longer(r, i) {
				continue
			}
			if slices.Contains(x.Row(i), r) {
				in = append(in, i)
			}
		}
		if want := append(out, in...); !slices.Equal(w.Row(r), want) {
			return fmt.Sprintf("W row %d is %v, want %v", r, w.Row(r), want)
		}
	}
	if len(op.CostPrefix) != int(n)+1 || op.CostPrefix[0] != 0 {
		return fmt.Sprintf("cost prefix has %d entries starting at %v, want %d from 0", len(op.CostPrefix), op.CostPrefix[:min(1, len(op.CostPrefix))], n+1)
	}
	var maxCost int64
	for r := Index(0); r < n; r++ {
		c := int64(x.RowNNZ(r)) + 1
		for _, k := range w.Row(r) {
			c += int64(x.RowNNZ(k))
		}
		if got := op.CostPrefix[r+1] - op.CostPrefix[r]; got != c {
			return fmt.Sprintf("row %d costs %d, want %d", r, got, c)
		}
		maxCost = max(maxCost, c)
	}
	if op.MaxRowCost != maxCost {
		return fmt.Sprintf("largest row cost %d, want %d", op.MaxRowCost, maxCost)
	}
	xm, wm := matrix.FromPattern(x, 1.0), matrix.FromPattern(w, 1.0)
	if want := core.Flops(xm, xm, 1); op.Flops != want {
		return fmt.Sprintf("flops %d, want flops(X·X) = %d", op.Flops, want)
	}
	if got, want := op.CostPrefix[n], core.Flops(wm, xm, 1)+int64(x.NNZ())+int64(n); got != want {
		return fmt.Sprintf("costs total %d, want flops(W·X) + nnz(X) + n = %d", got, want)
	}
	viaW, err := core.MaskedPairCount(x, w, x, core.Options{Threads: 1})
	if err != nil {
		return err.Error()
	}
	viaX, err := core.MaskedPairCount(x, x, x, core.Options{Threads: 1})
	if err != nil {
		return err.Error()
	}
	if viaW != viaX {
		return fmt.Sprintf("sum(X .* (W·X)) = %d, sum(X .* (X·X)) = %d", viaW, viaX)
	}
	return ""
}

// samePairOperand reports the first difference between two operands, or "".
func samePairOperand(got, want *matrix.PairOperand) string {
	switch {
	case samePattern(got.X, want.X) != "":
		return "X: " + samePattern(got.X, want.X)
	case samePattern(got.W, want.W) != "":
		return "W: " + samePattern(got.W, want.W)
	case !slices.Equal(got.CostPrefix, want.CostPrefix):
		return "cost prefix differs"
	case got.MaxRowCost != want.MaxRowCost || got.Flops != want.Flops:
		return fmt.Sprintf("largest row cost %d and flops %d, want %d and %d", got.MaxRowCost, got.Flops, want.MaxRowCost, want.Flops)
	}
	return ""
}

// TestPairOperand: on the relabel corpus (non-symmetric, unsorted-row,
// self-loop, isolated-vertex and all-ties graphs included) the count
// operand matches its definition (see pairOperandDiff) and is
// byte-identical at every worker count and every split into spans and
// ranges.
func TestPairOperand(t *testing.T) {
	for _, tc := range relabelCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			one := matrix.NewPairOperand(tc.g.Pattern(), 1)
			if diff := pairOperandDiff(one, tc.g); diff != "" {
				t.Fatal(diff)
			}
			for _, w := range relabelWorkers {
				if diff := samePairOperand(matrix.NewPairOperand(tc.g.Pattern(), w), one); diff != "" {
					t.Fatalf("%d workers against one: %s", w, diff)
				}
				if diff := samePairOperand(matrix.PairOperandRanges(tc.g, w), one); diff != "" {
					t.Fatalf("%d ranges against one worker: %s", w, diff)
				}
			}
		})
	}
}

// FuzzPairOperand requires the count operand to match its definition (see
// pairOperandDiff) on the inputs FuzzDegreeTril draws, unsorted and
// non-symmetric ones included, and to be byte-identical for 1 to 4
// workers, each split into as many spans and ranges however small the
// graph.
func FuzzPairOperand(f *testing.F) {
	addRelabelSeeds(f)
	f.Fuzz(func(t *testing.T, size uint8, reverse bool, data []byte) {
		g := fuzzSquare(size, reverse, data)
		one := matrix.NewPairOperand(g.Pattern(), 1)
		if diff := pairOperandDiff(one, g); diff != "" {
			t.Fatal(diff)
		}
		for p := 1; p <= 4; p++ {
			if diff := samePairOperand(matrix.PairOperandRanges(g, p), one); diff != "" {
				t.Fatalf("%d ranges against one worker: %s", p, diff)
			}
		}
	})
}
