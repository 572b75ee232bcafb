package matrix_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
)

// pairOperandDiff checks op against its definition for the graph g and
// the hub count k: the hubs H are the min(k, n, MaxPairHubs) vertices
// DegreeDescPerm numbers first, and the operand carries bits over them
// when k > 0 and force is set or the hub entries of the walked rows
// outnumber Words() × nnz(W). W lists every edge of X = DegreeTril(g) exactly once
// at the endpoint with the longer X row (the lower id on a tie), first
// the edges whose Tail(k,:) is not empty, up to WalkEnd, then the others;
// within each group out-part first in X's order and in-part ascending.
// Each row's bitmap holds exactly its X row's hubs, and its tail the rest
// in X's order (all of it without bits). The flops are core.Flops(X, X),
// and every row cost is Words()·nnz(W(r,:)) + nnz(Tail(r,:)) + 1, plus
// Σ_{k ∈ W(r,:)} nnz(Tail(k,:)) when Tail(r,:) is not empty, so the
// costs total Words()·nnz(W) + flops(Walked·Tail) + nnz(Tail) + n, for
// Walked the edges up to WalkEnd of the rows with a tail. Walks holds in
// each row r the tails of Walked(r,:) concatenated in order, nothing in
// the rows without a tail; the operand carries it when force is set and
// walks is too, or, without force, when it holds at most nnz(W) entries.
// Bytes() counts every array, Walks included. The count over the tails,
// W, the bits, the walk ends and Walks equals the count over X on the
// AVX-512 AND, where the CPU has it, and on the portable one. It returns
// the first difference, or "".
func pairOperandDiff(op *matrix.PairOperand, g *matrix.CSR[float64], k int, force, walks bool) string {
	x := matrix.DegreeTril(g, 1)
	n := x.NRows
	w := op.W
	if w.NRows != n || w.NCols != n || len(w.RowPtr) != int(n)+1 || w.NNZ() != x.NNZ() {
		return fmt.Sprintf("W is %dx%d with %d entries, want %dx%d with nnz(X) = %d", w.NRows, w.NCols, w.NNZ(), n, n, x.NNZ())
	}
	longer := func(u, v Index) bool { // u's X row is longer than v's, or as long with u < v
		du, dv := x.RowNNZ(u), x.RowNNZ(v)
		return du > dv || du == dv && u < v
	}
	rows := make([][]Index, n) // W's rows before the walked edges move first
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
		rows[r] = append(out, in...)
	}
	// rank[v] < hubs makes v a hub, and its bit is rank[v].
	rank := matrix.DegreeDescPerm(g)
	hubs := min(k, int(n), matrix.MaxPairHubs)
	isHub := func(v Index) bool { return int(rank[v]) < hubs }
	words := (hubs + 63) / 64
	var hubWalks int64
	for r := Index(0); r < n; r++ {
		for _, k := range rows[r] {
			for _, j := range x.Row(k) {
				hubWalks += int64(b2i(isHub(j)))
			}
		}
	}
	if hubs == 0 || !force && hubWalks <= int64(words)*int64(w.NNZ()) {
		hubs, words = 0, 0
	}
	if op.Hubs != hubs || op.Words() != words || len(op.Bits) != int(n)*words {
		return fmt.Sprintf("%d hubs in %d words a row, %d words in all; want %d hubs in %d words a row (%d hub entries walked, nnz(W) = %d)",
			op.Hubs, op.Words(), len(op.Bits), hubs, words, hubWalks, w.NNZ())
	}
	tail := op.Tail
	if tail.NRows != n || tail.NCols != n || len(tail.RowPtr) != int(n)+1 {
		return fmt.Sprintf("tails are %dx%d with %d row pointers, want %dx%d", tail.NRows, tail.NCols, len(tail.RowPtr), n, n)
	}
	for r := Index(0); r < n; r++ {
		var want []Index
		bits := make([]uint64, words)
		for _, j := range x.Row(r) {
			if hubs > 0 && isHub(j) {
				bits[rank[j]/64] |= 1 << (rank[j] % 64)
			} else {
				want = append(want, j)
			}
		}
		if !slices.Equal(tail.Row(r), want) {
			return fmt.Sprintf("tail of row %d is %v, want %v", r, tail.Row(r), want)
		}
		if got := op.Bits[int(r)*words : int(r+1)*words]; !slices.Equal(got, bits) {
			return fmt.Sprintf("bits of row %d are %x, want %x", r, got, bits)
		}
	}
	if len(op.WalkEnd) != int(n) {
		return fmt.Sprintf("%d walk ends, want %d", len(op.WalkEnd), n)
	}
	walked := &matrix.Pattern{NRows: n, NCols: n, RowPtr: make([]Index, n+1)} // the edges a count walks
	for r := Index(0); r < n; r++ {
		var first, rest []Index
		for _, k := range rows[r] {
			if tail.RowNNZ(k) > 0 {
				first = append(first, k)
			} else {
				rest = append(rest, k)
			}
		}
		if want := append(first, rest...); !slices.Equal(w.Row(r), want) {
			return fmt.Sprintf("W row %d is %v, want %v", r, w.Row(r), want)
		}
		if got := op.WalkEnd[r] - w.RowPtr[r]; got != Index(len(first)) {
			return fmt.Sprintf("W row %d walks %d edges, want the %d whose tail is not empty", r, got, len(first))
		}
		if tail.RowNNZ(r) > 0 {
			walked.Col = append(walked.Col, first...)
		}
		walked.RowPtr[r+1] = Index(len(walked.Col))
	}
	if len(op.CostPrefix) != int(n)+1 || op.CostPrefix[0] != 0 {
		return fmt.Sprintf("cost prefix has %d entries starting at %v, want %d from 0", len(op.CostPrefix), op.CostPrefix[:min(1, len(op.CostPrefix))], n+1)
	}
	var maxCost int64
	for r := Index(0); r < n; r++ {
		c := int64(tail.RowNNZ(r)) + 1
		for _, k := range w.Row(r) {
			c += int64(words)
			if tail.RowNNZ(r) > 0 {
				c += int64(tail.RowNNZ(k))
			}
		}
		if got := op.CostPrefix[r+1] - op.CostPrefix[r]; got != c {
			return fmt.Sprintf("row %d costs %d, want %d", r, got, c)
		}
		maxCost = max(maxCost, c)
	}
	if op.MaxRowCost != maxCost {
		return fmt.Sprintf("largest row cost %d, want %d", op.MaxRowCost, maxCost)
	}
	list := &matrix.Pattern{NRows: n, NCols: n, RowPtr: make([]Index, n+1)} // Walks by its definition
	for r := Index(0); r < n; r++ {
		for _, k := range walked.Row(r) {
			list.Col = append(list.Col, tail.Row(k)...)
		}
		list.RowPtr[r+1] = Index(len(list.Col))
	}
	if !force {
		walks = list.NNZ() <= w.NNZ()
	}
	switch {
	case !walks && op.Walks != nil:
		return fmt.Sprintf("the operand carries Walks of %d entries, want none (nnz(W) = %d)", op.Walks.NNZ(), w.NNZ())
	case walks && op.Walks == nil:
		return fmt.Sprintf("the operand carries no Walks, want %d entries (nnz(W) = %d)", list.NNZ(), w.NNZ())
	case walks:
		if diff := samePattern(op.Walks, list); diff != "" {
			return "Walks: " + diff
		}
	}
	idx := len(tail.RowPtr) + len(tail.Col) + len(w.RowPtr) + len(w.Col) + len(op.WalkEnd)
	if walks {
		idx += len(list.RowPtr) + len(list.Col)
	}
	if got, want := op.Bytes(), 4*int64(idx)+8*int64(len(op.CostPrefix)+len(op.Bits)); got != want {
		return fmt.Sprintf("Bytes() = %d, want %d", got, want)
	}
	xm, wm, tm := matrix.FromPattern(x, 1.0), matrix.FromPattern(walked, 1.0), matrix.FromPattern(tail, 1.0)
	if want := core.Flops(xm, xm, 1); op.Flops != want {
		return fmt.Sprintf("flops %d, want flops(X·X) = %d", op.Flops, want)
	}
	if got, want := op.CostPrefix[n], int64(words)*int64(w.NNZ())+core.Flops(wm, tm, 1)+int64(tail.NNZ())+int64(n); got != want {
		return fmt.Sprintf("costs total %d, want Words()·nnz(W) + flops(Walked·Tail) + nnz(Tail) + n = %d", got, want)
	}
	viaX, err := core.MaskedPairCount(x, x, x, nil, x.RowPtr[1:], nil, core.Options{Threads: 1})
	if err != nil {
		return err.Error()
	}
	count := func() (int64, error) {
		return core.MaskedPairCount(tail, w, tail, op.Bits, op.WalkEnd, op.Walks, core.Options{Threads: 1})
	}
	viaW, err := count()
	if err != nil {
		return err.Error()
	}
	var portable int64
	matrix.WithPortablePairAnd(func() { portable, err = count() })
	if err != nil {
		return err.Error()
	}
	if viaW != viaX || portable != viaX {
		return fmt.Sprintf("sum(X .* (W·X)) over %d hubs, walks listed %v = %d (portable AND %d), sum(X .* (X·X)) = %d", hubs, walks, viaW, portable, viaX)
	}
	return ""
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hubCounts are the hub counts the count-operand tests force on an n-vertex
// graph: none, one, half and all of its vertices. The build keeps at most
// MaxPairHubs of them.
func hubCounts(n Index) []int {
	return []int{0, 1, (int(n) + 1) / 2, int(n)}
}

// samePairOperand reports the first difference between two operands, or "".
func samePairOperand(got, want *matrix.PairOperand) string {
	switch {
	case got.Hubs != want.Hubs || !slices.Equal(got.Bits, want.Bits):
		return fmt.Sprintf("%d hubs, want %d, or their bits differ", got.Hubs, want.Hubs)
	case samePattern(got.Tail, want.Tail) != "":
		return "tails: " + samePattern(got.Tail, want.Tail)
	case samePattern(got.W, want.W) != "":
		return "W: " + samePattern(got.W, want.W)
	case !slices.Equal(got.WalkEnd, want.WalkEnd):
		return "walk ends differ"
	case (got.Walks == nil) != (want.Walks == nil):
		return fmt.Sprintf("Walks kept %v, want %v", got.Walks != nil, want.Walks != nil)
	case got.Walks != nil && samePattern(got.Walks, want.Walks) != "":
		return "Walks: " + samePattern(got.Walks, want.Walks)
	case !slices.Equal(got.CostPrefix, want.CostPrefix):
		return "cost prefix differs"
	case got.MaxRowCost != want.MaxRowCost || got.Flops != want.Flops:
		return fmt.Sprintf("largest row cost %d and flops %d, want %d and %d", got.MaxRowCost, got.Flops, want.MaxRowCost, want.Flops)
	}
	return ""
}

// TestPairOperand: on the relabel corpus (non-symmetric, unsorted-row,
// self-loop, isolated-vertex and all-ties graphs included) the count
// operand matches its definition (see pairOperandDiff), its count on
// both AND loops included, with the hub count and Walks the build picks
// and with 0, 1, ⌈n/2⌉ and n hubs forced (the build keeps at most 512),
// each with Walks forced on and off, and is byte-identical at every
// worker count and every split into spans and ranges.
func TestPairOperand(t *testing.T) {
	for _, tc := range relabelCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			one := matrix.NewPairOperand(tc.g.Pattern(), 1)
			if diff := pairOperandDiff(one, tc.g, matrix.MaxPairHubs, false, false); diff != "" {
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
			for _, k := range hubCounts(tc.g.NRows) {
				for _, walks := range []bool{false, true} {
					one := matrix.PairOperandHubs(tc.g, 1, k, walks)
					if diff := pairOperandDiff(one, tc.g, k, true, walks); diff != "" {
						t.Fatalf("%d hubs, walks listed %v: %s", k, walks, diff)
					}
					for _, w := range relabelWorkers {
						if diff := samePairOperand(matrix.PairOperandHubs(tc.g, w, k, walks), one); diff != "" {
							t.Fatalf("%d hubs, walks listed %v, %d ranges against one: %s", k, walks, w, diff)
						}
					}
				}
			}
		})
	}
}

// TestPairOperandHubRule: the build carries bits and Walks on the skewed
// R-MAT graphs the tc-rmat benchmark counts (scale 13, edge factor 16,
// seeds 1 and 5), where most walked entries are hub edges and the walks
// read fewer tail entries than W holds edges, and neither on an
// Erdős–Rényi graph of as many vertices and degree 16, where few walked
// entries are hub edges and the walks read about five times nnz(W).
func TestPairOperandHubRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *matrix.CSR[float64]
		kept bool
	}{
		{"rmat-13-seed1", grgen.RMAT(13, 16, 1), true},
		{"rmat-13-seed5", grgen.RMAT(13, 16, 5), true},
		{"er-8192-deg16", grgen.ErdosRenyiSym(1<<13, 16, 1), false},
	} {
		op := matrix.NewPairOperand(tc.g.Pattern(), 2)
		want := 0
		if tc.kept {
			want = matrix.MaxPairHubs
		}
		if op.Hubs != want {
			t.Errorf("%s: %d hubs, want %d", tc.name, op.Hubs, want)
		}
		if (op.Walks != nil) != tc.kept {
			t.Errorf("%s: Walks kept %v, want %v", tc.name, op.Walks != nil, tc.kept)
		}
	}
}

// FuzzPairOperand requires the count operand to match its definition (see
// pairOperandDiff), its count on both AND loops included, on the inputs
// FuzzDegreeTril draws, unsorted and non-symmetric ones included, with
// the hub count and Walks the build picks and with 0, 1, ⌈n/2⌉ and n hubs
// forced (n ≤ 32, so one-word bitmap rows, whose masked loads read one
// word), each with Walks forced on and off, and to be byte-identical for
// 1 to 4 workers, each split into as many spans and ranges however small
// the graph.
func FuzzPairOperand(f *testing.F) {
	addRelabelSeeds(f)
	f.Fuzz(func(t *testing.T, size uint8, reverse bool, data []byte) {
		g := fuzzSquare(size, reverse, data)
		one := matrix.NewPairOperand(g.Pattern(), 1)
		if diff := pairOperandDiff(one, g, matrix.MaxPairHubs, false, false); diff != "" {
			t.Fatal(diff)
		}
		for p := 1; p <= 4; p++ {
			if diff := samePairOperand(matrix.PairOperandRanges(g, p), one); diff != "" {
				t.Fatalf("%d ranges against one worker: %s", p, diff)
			}
		}
		for _, k := range hubCounts(g.NRows) {
			for _, walks := range []bool{false, true} {
				one := matrix.PairOperandHubs(g, 1, k, walks)
				if diff := pairOperandDiff(one, g, k, true, walks); diff != "" {
					t.Fatalf("%d hubs, walks listed %v: %s", k, walks, diff)
				}
				for p := 2; p <= 4; p++ {
					if diff := samePairOperand(matrix.PairOperandHubs(g, p, k, walks), one); diff != "" {
						t.Fatalf("%d hubs, walks listed %v, %d ranges against one: %s", k, walks, p, diff)
					}
				}
			}
		}
	})
}
