package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// randCSR builds a random m-by-n CSR matrix with about density*m*n entries
// and small integer-valued float64 entries (exact arithmetic in float64, so
// results compare exactly regardless of accumulation order).
func randCSR(r *rand.Rand, m, n Index, density float64) *matrix.CSR[float64] {
	coo := &matrix.COO[float64]{NRows: m, NCols: n}
	target := int(density * float64(m) * float64(n))
	for e := 0; e < target; e++ {
		coo.Row = append(coo.Row, Index(r.Intn(int(m))))
		coo.Col = append(coo.Col, Index(r.Intn(int(n))))
		coo.Val = append(coo.Val, float64(1+r.Intn(4)))
	}
	return matrix.NewCSRFromCOO(coo, func(a, b float64) float64 { return a + b })
}

func eqF(a, b float64) bool { return a == b }

func TestAllVariantsAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sr := semiring.Arithmetic()
	shapes := []struct {
		m, k, n Index
		dA, dM  float64
	}{
		{1, 1, 1, 1.0, 1.0},
		{5, 7, 6, 0.3, 0.3},
		{16, 16, 16, 0.1, 0.2},
		{16, 16, 16, 0.4, 0.05},
		{40, 30, 50, 0.08, 0.15},
		{64, 64, 64, 0.05, 0.05},
		{100, 80, 90, 0.02, 0.5},
		{33, 129, 65, 0.07, 0.07},
	}
	for si, sh := range shapes {
		a := randCSR(r, sh.m, sh.k, sh.dA)
		b := randCSR(r, sh.k, sh.n, sh.dA)
		mask := randCSR(r, sh.m, sh.n, sh.dM).Pattern()
		want := Reference(mask, a, b, sr, false)
		for _, v := range AllVariants() {
			for _, threads := range []int{1, 4} {
				got, err := MaskedSpGEMM(v, mask, a, b, sr, Options{Threads: threads, Grain: 3})
				if err != nil {
					t.Fatalf("shape %d %s threads=%d: %v", si, v.Name(), threads, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("shape %d %s threads=%d: invalid output: %v", si, v.Name(), threads, err)
				}
				if !matrix.Equal(got, want, eqF) {
					t.Errorf("shape %d %s threads=%d: result differs from reference", si, v.Name(), threads)
				}
			}
		}
	}
}

func TestComplementAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sr := semiring.Arithmetic()
	shapes := []struct {
		m, k, n Index
		dA, dM  float64
	}{
		{5, 5, 5, 0.4, 0.4},
		{16, 16, 16, 0.15, 0.3},
		{30, 20, 25, 0.1, 0.1},
		{64, 64, 64, 0.05, 0.02},
		{50, 50, 50, 0.06, 0.9},
	}
	for si, sh := range shapes {
		a := randCSR(r, sh.m, sh.k, sh.dA)
		b := randCSR(r, sh.k, sh.n, sh.dA)
		mask := randCSR(r, sh.m, sh.n, sh.dM).Pattern()
		want := Reference(mask, a, b, sr, true)
		for _, v := range AllVariants() {
			if !v.SupportsComplement() {
				continue
			}
			got, err := MaskedSpGEMM(v, mask, a, b, sr, Options{Threads: 2, Grain: 5, Complement: true})
			if err != nil {
				t.Fatalf("shape %d %s: %v", si, v.Name(), err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("shape %d %s: invalid output: %v", si, v.Name(), err)
			}
			if !matrix.Equal(got, want, eqF) {
				t.Errorf("shape %d %s complement: result differs from reference", si, v.Name())
			}
		}
	}
}

func TestMCARejectsComplement(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := randCSR(r, 4, 4, 0.5)
	mask := a.Pattern()
	for _, ph := range []Phase{OnePhase, TwoPhase} {
		_, err := MaskedSpGEMM(Variant{MCA, ph}, mask, a, a, semiring.Arithmetic(), Options{Complement: true})
		if err == nil {
			t.Errorf("MCA-%s: expected error for complemented mask", ph)
		}
	}
}

func TestDimensionMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := randCSR(r, 4, 5, 0.5)
	b := randCSR(r, 6, 4, 0.5) // inner dim mismatch: a.NCols=5, b.NRows=6
	mask := randCSR(r, 4, 4, 0.5).Pattern()
	if _, err := MaskedSpGEMM(Variant{MSA, OnePhase}, mask, a, b, semiring.Arithmetic(), Options{}); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	b2 := randCSR(r, 5, 4, 0.5)
	badMask := randCSR(r, 3, 4, 0.5).Pattern() // mask rows mismatch
	if _, err := MaskedSpGEMM(Variant{MSA, OnePhase}, badMask, a, b2, semiring.Arithmetic(), Options{}); err == nil {
		t.Fatal("expected mask dimension mismatch error")
	}
}

func TestEmptyOperands(t *testing.T) {
	sr := semiring.Arithmetic()
	empty := matrix.NewEmptyCSR[float64](8, 8)
	r := rand.New(rand.NewSource(3))
	full := randCSR(r, 8, 8, 0.5)
	cases := []struct {
		name    string
		m       *matrix.Pattern
		a, b    *matrix.CSR[float64]
		wantNNZ int
	}{
		{"empty mask", empty.Pattern(), full, full, 0},
		{"empty A", full.Pattern(), empty, full, 0},
		{"empty B", full.Pattern(), full, empty, 0},
		{"all empty", empty.Pattern(), empty, empty, 0},
	}
	for _, tc := range cases {
		for _, v := range AllVariants() {
			got, err := MaskedSpGEMM(v, tc.m, tc.a, tc.b, sr, Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, v.Name(), err)
			}
			if got.NNZ() != tc.wantNNZ {
				t.Errorf("%s %s: nnz=%d want %d", tc.name, v.Name(), got.NNZ(), tc.wantNNZ)
			}
		}
	}
}

func TestZeroDimension(t *testing.T) {
	sr := semiring.Arithmetic()
	zeroRow := matrix.NewEmptyCSR[float64](0, 5)
	b := matrix.NewEmptyCSR[float64](5, 5)
	m := matrix.NewEmptyCSR[float64](0, 5)
	for _, v := range AllVariants() {
		got, err := MaskedSpGEMM(v, m.Pattern(), zeroRow, b, sr, Options{})
		if err != nil {
			t.Fatalf("%s: %v", v.Name(), err)
		}
		if got.NRows != 0 || got.NNZ() != 0 {
			t.Errorf("%s: want empty 0-row result", v.Name())
		}
	}
}

// TestOutputPatternSubsetOfMask checks the structural invariant: with a
// normal mask, every output position must appear in the mask; with a
// complemented mask, no output position may appear in the mask.
func TestOutputPatternSubsetOfMask(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sr := semiring.Arithmetic()
	for trial := 0; trial < 20; trial++ {
		n := Index(10 + r.Intn(60))
		a := randCSR(r, n, n, 0.1)
		b := randCSR(r, n, n, 0.1)
		mask := randCSR(r, n, n, 0.15).Pattern()
		for _, v := range AllVariants() {
			got, err := MaskedSpGEMM(v, mask, a, b, sr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.PatternSubset(got.Pattern(), mask) {
				t.Fatalf("trial %d %s: output not a subset of mask", trial, v.Name())
			}
			if !v.SupportsComplement() {
				continue
			}
			gotC, err := MaskedSpGEMM(v, mask, a, b, sr, Options{Complement: true})
			if err != nil {
				t.Fatal(err)
			}
			// Complement output must be disjoint from the mask.
			md := matrix.ToDense(matrix.FromPattern(mask, 1.0))
			for i := Index(0); i < gotC.NRows; i++ {
				for k := gotC.RowPtr[i]; k < gotC.RowPtr[i+1]; k++ {
					if _, ok := md.At(i, gotC.Col[k]); ok {
						t.Fatalf("trial %d %s: complement output overlaps mask at (%d,%d)",
							trial, v.Name(), i, gotC.Col[k])
					}
				}
			}
		}
	}
}

// TestOnePhaseEqualsTwoPhase is the §6 consistency property: for every
// algorithm the two phase strategies must produce identical matrices.
func TestOnePhaseEqualsTwoPhase(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	sr := semiring.Arithmetic()
	for trial := 0; trial < 10; trial++ {
		n := Index(20 + r.Intn(50))
		a := randCSR(r, n, n, 0.08)
		b := randCSR(r, n, n, 0.08)
		mask := randCSR(r, n, n, 0.1).Pattern()
		for _, alg := range []Algorithm{MSA, Hash, MCA, Heap, HeapDot, Inner} {
			c1, err := MaskedSpGEMM(Variant{alg, OnePhase}, mask, a, b, sr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			c2, err := MaskedSpGEMM(Variant{alg, TwoPhase}, mask, a, b, sr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(c1, c2, eqF) {
				t.Fatalf("trial %d %s: 1P and 2P differ", trial, alg)
			}
		}
	}
}

// TestComplementPartition verifies that for any inputs, the masked product
// and the complement-masked product partition the plain product:
// pattern(M.*(AB)) ⊎ pattern(¬M.*(AB)) = pattern(AB) and values agree.
func TestComplementPartition(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	sr := semiring.Arithmetic()
	for trial := 0; trial < 10; trial++ {
		n := Index(15 + r.Intn(40))
		a := randCSR(r, n, n, 0.1)
		b := randCSR(r, n, n, 0.1)
		mask := randCSR(r, n, n, 0.2).Pattern()
		normal, err := MaskedSpGEMM(Variant{MSA, OnePhase}, mask, a, b, sr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		comp, err := MaskedSpGEMM(Variant{MSA, OnePhase}, mask, a, b, sr, Options{Complement: true})
		if err != nil {
			t.Fatal(err)
		}
		// Full product = reference against an all-true mask = complement of
		// an empty mask.
		emptyMask := matrix.NewEmptyCSR[float64](n, n).Pattern()
		plain := Reference(emptyMask, a, b, sr, true)
		if normal.NNZ()+comp.NNZ() != plain.NNZ() {
			t.Fatalf("trial %d: nnz %d + %d != %d", trial, normal.NNZ(), comp.NNZ(), plain.NNZ())
		}
		nd := matrix.ToDense(normal)
		cd := matrix.ToDense(comp)
		for i := Index(0); i < n; i++ {
			for k := plain.RowPtr[i]; k < plain.RowPtr[i+1]; k++ {
				j := plain.Col[k]
				vn, okn := nd.At(i, j)
				vc, okc := cd.At(i, j)
				if okn == okc {
					t.Fatalf("trial %d: (%d,%d) in both or neither part", trial, i, j)
				}
				v := vn
				if okc {
					v = vc
				}
				if v != plain.Val[k] {
					t.Fatalf("trial %d: value mismatch at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

// TestQuickMaskedProduct is the property-based test: arbitrary seeds
// generate matrices, every variant must match the oracle.
func TestQuickMaskedProduct(t *testing.T) {
	sr := semiring.Arithmetic()
	property := func(seed int64, comp bool) bool {
		r := rand.New(rand.NewSource(seed))
		m := Index(1 + r.Intn(40))
		k := Index(1 + r.Intn(40))
		n := Index(1 + r.Intn(40))
		a := randCSR(r, m, k, 0.05+0.3*r.Float64())
		b := randCSR(r, k, n, 0.05+0.3*r.Float64())
		mask := randCSR(r, m, n, 0.05+0.5*r.Float64()).Pattern()
		want := Reference(mask, a, b, sr, comp)
		for _, v := range AllVariants() {
			if comp && !v.SupportsComplement() {
				continue
			}
			got, err := MaskedSpGEMM(v, mask, a, b, sr, Options{Threads: 2, Grain: 7, Complement: comp})
			if err != nil {
				return false
			}
			if !matrix.Equal(got, want, eqF) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSemirings runs every variant over non-arithmetic semirings: results
// must match the oracle under the same semiring.
func TestSemirings(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n := Index(40)
	a := randCSR(r, n, n, 0.1)
	b := randCSR(r, n, n, 0.1)
	mask := randCSR(r, n, n, 0.2).Pattern()
	srs := []semiring.Semiring[float64]{
		semiring.Arithmetic(),
		semiring.PlusPairF(),
		semiring.MinPlus(),
		semiring.PlusSecond(),
		semiring.PlusFirst(),
		semiring.MaxTimes(),
	}
	for _, sr := range srs {
		want := Reference(mask, a, b, sr, false)
		for _, v := range AllVariants() {
			// Heap/HeapDot accumulate in sorted-pop order; MinPlus/MaxTimes
			// are order-insensitive (idempotent-ish min/max), Arithmetic on
			// small ints is exact, so exact compare is valid for all.
			got, err := MaskedSpGEMM(v, mask, a, b, sr, Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", sr.Name, v.Name(), err)
			}
			if !matrix.Equal(got, want, eqF) {
				t.Errorf("%s %s: mismatch", sr.Name, v.Name())
			}
		}
	}
}

func TestMaskedDotCSC(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	sr := semiring.Arithmetic()
	for trial := 0; trial < 5; trial++ {
		m := Index(10 + r.Intn(30))
		k := Index(10 + r.Intn(30))
		n := Index(10 + r.Intn(30))
		a := randCSR(r, m, k, 0.15)
		b := randCSR(r, k, n, 0.15)
		mask := randCSR(r, m, n, 0.2).Pattern()
		bcsc := matrix.ToCSC(b)
		want := Reference(mask, a, b, sr, false)
		for _, ph := range []Phase{OnePhase, TwoPhase} {
			got, err := MaskedDotCSC(ph, mask, a, bcsc, sr, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(got, want, eqF) {
				t.Errorf("MaskedDotCSC %s trial %d: mismatch", ph, trial)
			}
		}
		wantC := Reference(mask, a, b, sr, true)
		gotC, err := MaskedDotCSC(OnePhase, mask, a, bcsc, sr, Options{Complement: true})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(gotC, wantC, eqF) {
			t.Errorf("MaskedDotCSC complement trial %d: mismatch", trial)
		}
	}
}

func TestHeapNInspectAblationCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	sr := semiring.Arithmetic()
	n := Index(50)
	a := randCSR(r, n, n, 0.1)
	b := randCSR(r, n, n, 0.1)
	mask := randCSR(r, n, n, 0.2).Pattern()
	want := Reference(mask, a, b, sr, false)
	for _, ni := range []int32{0, 1, 2, 4, 1 << 30} {
		for _, ph := range []Phase{OnePhase, TwoPhase} {
			got, err := MaskedSpGEMMHeapNInspect(ph, mask, a, b, sr, ni, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(got, want, eqF) {
				t.Errorf("Heap NInspect=%d %s: mismatch", ni, ph)
			}
		}
	}
}

func TestFlops(t *testing.T) {
	// A = [1 1; 0 1], B = [1 0; 1 1]: flops = row0: nnz(B0)+nnz(B1)=1+2=3,
	// row1: nnz(B1)=2 → 5.
	a := matrix.NewCSRFromCOO(&matrix.COO[float64]{
		NRows: 2, NCols: 2,
		Row: []Index{0, 0, 1}, Col: []Index{0, 1, 1}, Val: []float64{1, 1, 1},
	}, nil)
	b := matrix.NewCSRFromCOO(&matrix.COO[float64]{
		NRows: 2, NCols: 2,
		Row: []Index{0, 1, 1}, Col: []Index{0, 0, 1}, Val: []float64{1, 1, 1},
	}, nil)
	if got := Flops(a, b, 1); got != 5 {
		t.Fatalf("Flops = %d, want 5", got)
	}
	if got := Flops(a, b, 4); got != 5 {
		t.Fatalf("Flops parallel = %d, want 5", got)
	}
}

func TestVariantNamesAndLookup(t *testing.T) {
	vs := AllVariants()
	if len(vs) != 12 {
		t.Fatalf("AllVariants returned %d, want 12", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.Name()] {
			t.Fatalf("duplicate variant name %s", v.Name())
		}
		seen[v.Name()] = true
		got, err := VariantByName(v.Name())
		if err != nil || got != v {
			t.Fatalf("VariantByName(%s) = %v, %v", v.Name(), got, err)
		}
	}
	if _, err := VariantByName("Nope-1P"); err == nil {
		t.Fatal("expected error for unknown variant")
	}
	for _, want := range []string{"MSA-1P", "Hash-2P", "MCA-1P", "Heap-2P", "HeapDot-1P", "Inner-2P"} {
		if !seen[want] {
			t.Fatalf("missing variant %s", want)
		}
	}
}

// TestRealisticGraphTriangleMask exercises the triangle-counting shape on a
// generated graph: mask = L, product = L·L.
func TestRealisticGraphTriangleMask(t *testing.T) {
	g := grgen.RMAT(7, 8, 99)
	l := matrix.Tril(g)
	sr := semiring.PlusPairF()
	want := Reference(l.Pattern(), l, l, sr, false)
	for _, v := range AllVariants() {
		got, err := MaskedSpGEMM(v, l.Pattern(), l, l, sr, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got, want, eqF) {
			t.Errorf("%s on RMAT triangle mask: mismatch", v.Name())
		}
	}
}

func ExampleMaskedSpGEMM() {
	// C = M .* (A·B) on a 2x2 arithmetic example.
	a := matrix.NewCSRFromCOO(&matrix.COO[float64]{
		NRows: 2, NCols: 2,
		Row: []Index{0, 0, 1}, Col: []Index{0, 1, 0}, Val: []float64{1, 2, 3},
	}, nil)
	b := matrix.NewCSRFromCOO(&matrix.COO[float64]{
		NRows: 2, NCols: 2,
		Row: []Index{0, 1}, Col: []Index{0, 0}, Val: []float64{10, 100},
	}, nil)
	mask := a.Pattern() // only positions (0,0), (0,1), (1,0) may appear
	c, _ := MaskedSpGEMM(Variant{MSA, OnePhase}, mask, a, b, semiring.Arithmetic(), Options{Threads: 1})
	for i := Index(0); i < c.NRows; i++ {
		cols, vals := c.Row(i)
		for k := range cols {
			fmt.Printf("C[%d,%d] = %v\n", i, cols[k], vals[k])
		}
	}
	// Output:
	// C[0,0] = 210
	// C[1,0] = 30
}
