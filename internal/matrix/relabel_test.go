package matrix_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/grgen"
	"repro/internal/matrix"
)

type Index = matrix.Index

// relabelChain is the three-step construction RelabelTril replaces.
func relabelChain(g *matrix.CSR[float64]) *matrix.CSR[float64] {
	return matrix.Tril(matrix.Permute(g, matrix.DegreeDescPerm(g)))
}

// sameBytes reports the first difference between got and want in shape,
// RowPtr, Col or Val (values compared bit for bit), or "" if none.
func sameBytes(got, want *matrix.CSR[float64]) string {
	switch {
	case got.NRows != want.NRows || got.NCols != want.NCols:
		return "shape differs"
	case !slices.Equal(got.RowPtr, want.RowPtr):
		return "RowPtr differs"
	case !slices.Equal(got.Col, want.Col):
		return "Col differs"
	case len(got.Val) != len(want.Val):
		return "Val length differs"
	}
	for k := range got.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			return "Val differs"
		}
	}
	return ""
}

// samePattern reports the first difference between got and want in shape,
// RowPtr or Col, or "" if none.
func samePattern(got, want *matrix.Pattern) string {
	switch {
	case got.NRows != want.NRows || got.NCols != want.NCols:
		return "shape differs"
	case !slices.Equal(got.RowPtr, want.RowPtr):
		return "RowPtr differs"
	case !slices.Equal(got.Col, want.Col):
		return "Col differs"
	}
	return ""
}

// fromEdges builds an n×n matrix from directed edges, each valued by its
// position so that values tell entries apart.
func fromEdges(n Index, edges [][2]Index) *matrix.CSR[float64] {
	c := &matrix.COO[float64]{NRows: n, NCols: n}
	for k, e := range edges {
		c.Row = append(c.Row, e[0])
		c.Col = append(c.Col, e[1])
		c.Val = append(c.Val, float64(k+1))
	}
	return matrix.NewCSRFromCOO(c, nil)
}

// relabelCase is one graph of the relabel tests' corpus.
type relabelCase struct {
	name string
	g    *matrix.CSR[float64]
}

// relabelCorpus is the graphs the relabel and orientation tests run on.
func relabelCorpus() []relabelCase {
	// A symmetric pattern whose values are not: entry (i,j) holds i·n+j.
	asym := grgen.RMAT(7, 8, 4)
	for i := Index(0); i < asym.NRows; i++ {
		for k := asym.RowPtr[i]; k < asym.RowPtr[i+1]; k++ {
			asym.Val[k] = float64(i*asym.NCols + asym.Col[k])
		}
	}
	// Isolated vertices: a small graph embedded in a larger vertex set.
	isolated := fromEdges(40, [][2]Index{{3, 17}, {17, 3}, {17, 30}, {30, 17}, {3, 30}, {30, 3}, {9, 17}, {17, 9}})
	// All degrees equal (a cycle through the vertices in shuffled order),
	// so only the tie rule orders them.
	r := rand.New(rand.NewSource(5))
	order := r.Perm(50)
	var cycle [][2]Index
	for k := range order {
		u, v := Index(order[k]), Index(order[(k+1)%len(order)])
		cycle = append(cycle, [2]Index{u, v}, [2]Index{v, u})
	}
	// Unsorted rows: an R-MAT graph with every row reversed.
	unsorted := grgen.RMAT(9, 8, 8)
	for i := Index(0); i < unsorted.NRows; i++ {
		lo, hi := unsorted.RowPtr[i], unsorted.RowPtr[i+1]
		slices.Reverse(unsorted.Col[lo:hi])
		slices.Reverse(unsorted.Val[lo:hi])
	}
	// Self-loops on every vertex, between the other entries of its row.
	var loops [][2]Index
	withLoops := grgen.RMAT(8, 8, 9)
	for i := Index(0); i < withLoops.NRows; i++ {
		cols, _ := withLoops.Row(i)
		for k, j := range cols {
			if k == len(cols)/2 {
				loops = append(loops, [2]Index{i, i})
			}
			loops = append(loops, [2]Index{i, j})
		}
	}
	return []relabelCase{
		{"rmat-seed1", grgen.RMAT(10, 16, 1)},
		{"rmat-seed2", grgen.RMAT(10, 16, 2)},
		{"rmat-seed3", grgen.RMAT(10, 16, 3)},
		{"rmat-directed", grgen.RMATDirected(10, 16, 4)},
		// Lower-triangular input: row i's entries are not column i's, which
		// is what breaks a pass that assumes symmetry.
		{"tril-of-rmat", matrix.Tril(grgen.RMAT(9, 8, 5))},
		{"asymmetric-values", asym},
		{"empty-0x0", fromEdges(0, nil)},
		{"single-1x1", fromEdges(1, nil)},
		{"single-1x1-loop", fromEdges(1, [][2]Index{{0, 0}})},
		{"isolated-vertices", isolated},
		{"equal-degrees", fromEdges(50, cycle)},
		{"unsorted-rows", unsorted},
		{"self-loops", fromEdges(withLoops.NRows, loops)},
		// Large enough that the exported calls split it on their own.
		{"rmat-scale12", grgen.RMAT(12, 16, 6)},
	}
}

func TestRelabelTrilMatchesChain(t *testing.T) {
	for _, tc := range relabelCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			want := relabelChain(tc.g)
			for _, w := range relabelWorkers {
				got := matrix.RelabelTril(tc.g, w)
				if err := got.Validate(); err != nil {
					t.Fatalf("%d workers: %v", w, err)
				}
				if diff := sameBytes(got, want); diff != "" {
					t.Fatalf("%d workers: %s", w, diff)
				}
				// The same number of ranges, however small the graph.
				if diff := sameBytes(matrix.RelabelTrilRanges(tc.g, w), want); diff != "" {
					t.Fatalf("%d ranges: %s", w, diff)
				}
			}
		})
	}
}

// orientedDiff reports how x departs from the degree orientation of g, or
// "" if it does not: row i of x must be the entries of row i of g, in g's
// order, that DegreeDescPerm maps into row perm[i] of L =
// Tril(Permute(g, perm)), and all of them.
func orientedDiff(x *matrix.Pattern, g *matrix.CSR[float64]) string {
	if x.NRows != g.NRows || x.NCols != g.NCols {
		return "shape differs"
	}
	if err := x.Validate(); err != nil {
		return err.Error()
	}
	perm := matrix.DegreeDescPerm(g)
	l := relabelChain(g)
	for i := Index(0); i < g.NRows; i++ {
		row := x.Row(i)
		// A subsequence of g's row i: a's column order is kept.
		gRow, _ := g.Row(i)
		k := 0
		for _, j := range gRow {
			if k < len(row) && row[k] == j {
				k++
			}
		}
		if k != len(row) {
			return fmt.Sprintf("row %d is not in g's column order", i)
		}
		mapped := make([]Index, len(row))
		for k, j := range row {
			mapped[k] = perm[j]
		}
		slices.Sort(mapped)
		lRow, _ := l.Row(perm[i])
		if !slices.Equal(mapped, lRow) {
			return fmt.Sprintf("row %d maps to %v, want row %d of L %v", i, mapped, perm[i], lRow)
		}
	}
	return ""
}

// TestDegreeTrilMatchesRelabel: on the relabel corpus DegreeTril is L in
// the graph's own labels (see orientedDiff), byte-identical at every
// worker count and every number of spans.
func TestDegreeTrilMatchesRelabel(t *testing.T) {
	for _, tc := range relabelCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			one := matrix.DegreeTril(tc.g, 1)
			if diff := orientedDiff(one, tc.g); diff != "" {
				t.Fatal(diff)
			}
			for _, w := range relabelWorkers {
				if diff := samePattern(matrix.DegreeTril(tc.g, w), one); diff != "" {
					t.Fatalf("%d workers against one: %s", w, diff)
				}
				// The same number of spans, however small the graph.
				if diff := samePattern(matrix.DegreeTrilSpans(tc.g, w), one); diff != "" {
					t.Fatalf("%d spans against one worker: %s", w, diff)
				}
			}
		})
	}
}

// relabelWorkers are the worker counts the relabel tests run at; at 8 the
// smallest cases have more ranges than rows.
var relabelWorkers = []int{1, 2, 3, 8}

// TestRelabelRangesBalanced: the relabel's ranges cover the new labels in
// order, and on a skewed graph each carries its share of the entries to
// within one row, although the hubs all come first.
func TestRelabelRangesBalanced(t *testing.T) {
	g := grgen.RMAT(12, 16, 7)
	order := make([]Index, g.NRows) // new label -> old vertex
	for old, r := range matrix.DegreeDescPerm(g) {
		order[r] = Index(old)
	}
	maxRow := int64(0)
	for i := Index(0); i < g.NRows; i++ {
		maxRow = max(maxRow, int64(g.RowNNZ(i))+1)
	}
	total := int64(g.NNZ()) + int64(g.NRows)
	for _, p := range []int{1, 2, 3, 8} {
		b := matrix.RelabelBounds(g, p)
		if len(b) != p+1 || b[0] != 0 || b[p] != g.NRows {
			t.Fatalf("%d ranges: bounds %v", p, b)
		}
		for k := 0; k < p; k++ {
			if b[k] > b[k+1] {
				t.Fatalf("%d ranges: bounds %v not ascending", p, b)
			}
			var w int64
			for _, i := range order[b[k]:b[k+1]] {
				w += int64(g.RowNNZ(i)) + 1
			}
			if share := total / int64(p); w > share+maxRow || w < share-maxRow {
				t.Fatalf("%d ranges: range %d weighs %d, share %d, max row %d", p, k, w, share, maxRow)
			}
		}
	}
}

func TestDegreeDescPerm(t *testing.T) {
	// Degrees: row0=1, row1=3, row2=2.
	c := &matrix.COO[float64]{
		NRows: 3, NCols: 3,
		Row: []Index{0, 1, 1, 1, 2, 2},
		Col: []Index{0, 0, 1, 2, 0, 1},
		Val: []float64{1, 1, 1, 1, 1, 1},
	}
	a := matrix.NewCSRFromCOO(c, nil)
	perm := matrix.DegreeDescPerm(a)
	// Vertex 1 (deg 3) -> 0, vertex 2 (deg 2) -> 1, vertex 0 (deg 1) -> 2.
	if want := []Index{2, 0, 1}; !slices.Equal(perm, want) {
		t.Fatalf("perm = %v, want %v", perm, want)
	}
	// After relabeling, degrees are non-increasing.
	rel := matrix.Permute(a, perm)
	for i := Index(1); i < rel.NRows; i++ {
		if rel.RowNNZ(i) > rel.RowNNZ(i-1) {
			t.Fatal("relabeled degrees not non-increasing")
		}
	}
	// On a skewed graph with many tied degrees, the counting sort matches
	// a comparison sort that is stable on ids.
	g := grgen.RMAT(10, 8, 6)
	ids := make([]Index, g.NRows)
	for i := range ids {
		ids[i] = Index(i)
	}
	sort.SliceStable(ids, func(x, y int) bool { return g.RowNNZ(ids[x]) > g.RowNNZ(ids[y]) })
	want := make([]Index, g.NRows)
	for newID, oldID := range ids {
		want[oldID] = Index(newID)
	}
	if got := matrix.DegreeDescPerm(g); !slices.Equal(got, want) {
		t.Fatal("DegreeDescPerm differs from the sort.SliceStable reference")
	}
}

// fuzzSquare builds a small square matrix from arbitrary triplets
// (duplicates folded, self-loops kept, rows optionally reversed so they
// arrive unsorted).
func fuzzSquare(size uint8, reverse bool, data []byte) *matrix.CSR[float64] {
	n := Index(size % 33)
	c := &matrix.COO[float64]{NRows: n, NCols: n}
	if n > 0 {
		for k := 0; k+1 < len(data); k += 2 {
			c.Row = append(c.Row, Index(data[k])%n)
			c.Col = append(c.Col, Index(data[k+1])%n)
			c.Val = append(c.Val, float64(k))
		}
	}
	g := matrix.NewCSRFromCOO(c, func(a, b float64) float64 { return a + b })
	if reverse {
		for i := Index(0); i < n; i++ {
			lo, hi := g.RowPtr[i], g.RowPtr[i+1]
			slices.Reverse(g.Col[lo:hi])
			slices.Reverse(g.Val[lo:hi])
		}
	}
	return g
}

// fuzzRanges is the range or span count a relabel fuzzer checks against
// the one-worker call: 2 to 9, so that it can exceed the rows.
func fuzzRanges(size uint8) int { return 2 + int(size)%8 }

// addRelabelSeeds gives FuzzRelabelTril and FuzzDegreeTril the same seed
// corpus.
func addRelabelSeeds(f *testing.F) {
	f.Add(uint8(5), false, []byte{0, 1, 1, 0, 2, 3, 3, 2, 4, 4})
	f.Add(uint8(1), true, []byte{0, 0})
	f.Add(uint8(0), false, []byte{})
	f.Add(uint8(9), true, []byte{8, 0, 7, 1, 6, 2, 5, 3, 0, 8, 1, 7, 2, 6})
}

// FuzzRelabelTril requires RelabelTril to match the three-step chain byte
// for byte on arbitrary small square inputs (see fuzzSquare), and a split
// into several ranges to match the one-worker call.
func FuzzRelabelTril(f *testing.F) {
	addRelabelSeeds(f)
	f.Fuzz(func(t *testing.T, size uint8, reverse bool, data []byte) {
		g := fuzzSquare(size, reverse, data)
		one := matrix.RelabelTril(g, 1)
		if diff := sameBytes(one, relabelChain(g)); diff != "" {
			t.Fatal(diff)
		}
		p := fuzzRanges(size)
		if diff := sameBytes(matrix.RelabelTrilRanges(g, p), one); diff != "" {
			t.Fatalf("%d ranges against one worker: %s", p, diff)
		}
	})
}

// FuzzDegreeTril requires DegreeTril to be L in the graph's own labels
// (see orientedDiff) on the inputs FuzzRelabelTril draws, and a split into
// several spans to match the one-worker call byte for byte.
func FuzzDegreeTril(f *testing.F) {
	addRelabelSeeds(f)
	f.Fuzz(func(t *testing.T, size uint8, reverse bool, data []byte) {
		g := fuzzSquare(size, reverse, data)
		one := matrix.DegreeTril(g, 1)
		if diff := orientedDiff(one, g); diff != "" {
			t.Fatal(diff)
		}
		p := fuzzRanges(size)
		if diff := samePattern(matrix.DegreeTrilSpans(g, p), one); diff != "" {
			t.Fatalf("%d spans against one worker: %s", p, diff)
		}
	})
}
