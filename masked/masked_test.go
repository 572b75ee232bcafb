package masked

import (
	"context"
	"math"
	"path/filepath"
	"testing"
)

func TestMultiplyQuickstart(t *testing.T) {
	g := RMAT(8, 8, 1)
	l := Tril(g)
	ctx, s := context.Background(), NewSession()
	c, err := s.Multiply(ctx, l.Pattern(), l, l, WithAccumulate(PlusPair()))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() > l.NNZ() {
		t.Fatal("masked output cannot exceed mask")
	}
	// Every variant agrees with the default.
	for _, v := range Variants() {
		ci, err := s.Multiply(ctx, l.Pattern(), l, l, WithVariant(v), WithAccumulate(PlusPair()))
		if err != nil {
			t.Fatal(err)
		}
		if ci.NNZ() != c.NNZ() || Sum(ci) != Sum(c) {
			t.Fatalf("%s disagrees", v.Name())
		}
	}
}

func TestVariantLookup(t *testing.T) {
	if len(Variants()) != 12 {
		t.Fatal("want 12 variants")
	}
	v, err := VariantByName("Heap-2P")
	if err != nil || v.Name() != "Heap-2P" {
		t.Fatal("lookup failed")
	}
	if _, err := VariantByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestApplications(t *testing.T) {
	g := ErdosRenyi(300, 8, 2)
	v, _ := VariantByName("MSA-1P")
	ctx, s := context.Background(), NewSession(WithVariant(v))
	tc, err := s.TriangleCount(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Triangles < 0 {
		t.Fatal("negative triangles")
	}
	truss, kres, err := s.KTruss(ctx, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if truss.NNZ() > g.NNZ() || kres.Iterations < 1 {
		t.Fatal("k-truss must prune")
	}
	bc, err := s.BC(ctx, g, []Index{0, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(bc.Scores) != int(g.NRows) {
		t.Fatal("BC score length")
	}
	for _, sc := range bc.Scores {
		if sc < 0 || math.IsNaN(sc) {
			t.Fatal("invalid BC score")
		}
	}
}

func TestBaselinesExposed(t *testing.T) {
	g := ErdosRenyi(100, 6, 3)
	l := Tril(g)
	ctx, s := context.Background(), NewSession()
	want, err := s.Multiply(ctx, l.Pattern(), l, l)
	if err != nil {
		t.Fatal(err)
	}
	dot, err := s.SSDot(ctx, l.Pattern(), l, l, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	sax, err := s.SSSaxpy(ctx, l.Pattern(), l, l, WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if dot.NNZ() != want.NNZ() || sax.NNZ() != want.NNZ() {
		t.Fatal("baseline nnz mismatch")
	}
	if Sum(dot) != Sum(want) || Sum(sax) != Sum(want) {
		t.Fatal("baseline values mismatch")
	}
}

func TestConstructionHelpers(t *testing.T) {
	a := FromCOO(&COO{
		NRows: 2, NCols: 2,
		Row: []Index{0, 0, 1},
		Col: []Index{1, 1, 0},
		Val: []float64{1, 2, 5},
	})
	if a.NNZ() != 2 {
		t.Fatal("duplicates must sum")
	}
	if Sum(a) != 8 {
		t.Fatal("sum")
	}
	at := Transpose(a)
	if at.NNZ() != 2 {
		t.Fatal("transpose")
	}
	e := NewEmpty(3, 4)
	if e.NNZ() != 0 || e.NRows != 3 {
		t.Fatal("empty")
	}
	if Triu(a).NNZ() != 1 || Tril(a).NNZ() != 1 {
		t.Fatal("tri split")
	}
	if Flops(a, at) <= 0 {
		t.Fatal("flops")
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := ErdosRenyi(50, 4, 9)
	path := filepath.Join(t.TempDir(), "g.mtx")
	if err := WriteMatrixMarket(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != g.NNZ() || Sum(back) != Sum(g) {
		t.Fatal("round trip")
	}
}

func TestComplementOption(t *testing.T) {
	g := ErdosRenyi(80, 6, 4)
	ctx, s := context.Background(), NewSession()
	c, err := s.Multiply(ctx, g.Pattern(), g, g, WithComplement())
	if err != nil {
		t.Fatal(err)
	}
	// Complement output must not overlap the mask.
	mcols := map[[2]Index]bool{}
	for i := Index(0); i < g.NRows; i++ {
		for _, j := range g.Pattern().Row(i) {
			mcols[[2]Index{i, j}] = true
		}
	}
	for i := Index(0); i < c.NRows; i++ {
		cols, _ := c.Row(i)
		for _, j := range cols {
			if mcols[[2]Index{i, j}] {
				t.Fatal("complement output overlaps mask")
			}
		}
	}
	// MCA rejects complement through the facade too.
	mca, _ := VariantByName("MCA-1P")
	if _, err := s.Multiply(ctx, g.Pattern(), g, g, WithVariant(mca), WithComplement()); err == nil {
		t.Fatal("MCA must reject complement")
	}
}

func TestMultiplyAutoPlanAndExplain(t *testing.T) {
	g := RMAT(9, 8, 4)
	l := Tril(g)
	ctx, s := context.Background(), NewSession(WithAccumulate(PlusPair()))
	c, plan, err := s.MultiplyAuto(ctx, l.Pattern(), l, l)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Multiply(ctx, l.Pattern(), l, l, WithVariant(Variant{Alg: MSA, Phase: OnePhase}))
	if err != nil {
		t.Fatal(err)
	}
	if Sum(c) != Sum(want) {
		t.Fatalf("auto sum %v != MSA-1P sum %v", Sum(c), Sum(want))
	}
	if plan == nil || len(plan.Blocks) == 0 {
		t.Fatal("MultiplyAuto returned no plan")
	}
	exp := plan.Explain()
	if exp == "" {
		t.Fatal("empty Explain")
	}
	// Explain without executing agrees on the block structure.
	if dry := NewSession().Explain(l.Pattern(), l, l); len(dry.Blocks) != len(plan.Blocks) {
		t.Fatalf("Explain blocks %d != executed plan blocks %d", len(dry.Blocks), len(plan.Blocks))
	}
}

func TestOptionsAutoRoutesApplications(t *testing.T) {
	g := RMAT(8, 8, 5)
	// A session-level pin must be ignored under a per-call WithAuto: pin MCA
	// (which cannot run the complemented masks BC needs) and expect success
	// anyway.
	ctx := context.Background()
	s := NewSession(WithVariant(Variant{Alg: MCA, Phase: OnePhase}))
	msa := WithVariant(Variant{Alg: MSA, Phase: OnePhase})
	fixed, err := s.TriangleCount(ctx, g, msa)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := s.TriangleCount(ctx, g, WithAuto())
	if err != nil {
		t.Fatal(err)
	}
	if auto.Triangles != fixed.Triangles {
		t.Fatalf("auto TC %d != fixed TC %d", auto.Triangles, fixed.Triangles)
	}
	sources := []Index{0, 1, 2}
	bcFixed, err := s.BC(ctx, g, sources, msa)
	if err != nil {
		t.Fatal(err)
	}
	bcAuto, err := s.BC(ctx, g, sources, WithAuto())
	if err != nil {
		t.Fatal(err)
	}
	for i := range bcFixed.Scores {
		if math.Abs(bcFixed.Scores[i]-bcAuto.Scores[i]) > 1e-9 {
			t.Fatalf("BC scores diverge at %d: %v vs %v", i, bcFixed.Scores[i], bcAuto.Scores[i])
		}
	}
}
