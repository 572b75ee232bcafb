package matrix_test

import (
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

func TestRelabelTrilMatchesChain(t *testing.T) {
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
	cases := []struct {
		name string
		g    *matrix.CSR[float64]
	}{
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := matrix.RelabelTril(tc.g)
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if diff := sameBytes(got, relabelChain(tc.g)); diff != "" {
				t.Fatal(diff)
			}
			if diff := samePattern(matrix.RelabelTriu(tc.g), matrix.Transpose(got).Pattern()); diff != "" {
				t.Fatal("RelabelTriu: " + diff)
			}
		})
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

// addRelabelSeeds gives both relabel fuzzers the same seed corpus.
func addRelabelSeeds(f *testing.F) {
	f.Add(uint8(5), false, []byte{0, 1, 1, 0, 2, 3, 3, 2, 4, 4})
	f.Add(uint8(1), true, []byte{0, 0})
	f.Add(uint8(0), false, []byte{})
	f.Add(uint8(9), true, []byte{8, 0, 7, 1, 6, 2, 5, 3, 0, 8, 1, 7, 2, 6})
}

// FuzzRelabelTril requires RelabelTril to match the three-step chain byte
// for byte on arbitrary small square inputs (see fuzzSquare).
func FuzzRelabelTril(f *testing.F) {
	addRelabelSeeds(f)
	f.Fuzz(func(t *testing.T, size uint8, reverse bool, data []byte) {
		g := fuzzSquare(size, reverse, data)
		if diff := sameBytes(matrix.RelabelTril(g), relabelChain(g)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// FuzzRelabelTriu requires RelabelTriu to match the pattern of the
// transposed three-step chain byte for byte on the inputs FuzzRelabelTril
// draws.
func FuzzRelabelTriu(f *testing.F) {
	addRelabelSeeds(f)
	f.Fuzz(func(t *testing.T, size uint8, reverse bool, data []byte) {
		g := fuzzSquare(size, reverse, data)
		if diff := samePattern(matrix.RelabelTriu(g), matrix.Transpose(relabelChain(g)).Pattern()); diff != "" {
			t.Fatal(diff)
		}
	})
}
