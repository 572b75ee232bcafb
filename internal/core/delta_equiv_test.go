package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// deltaStream is a deterministic pre-generated update stream: one batch
// per round per operand, shared by every configuration of the battery so
// all configs replay the identical edge history.
type deltaStream struct {
	m, a, b [][]matrix.Update[float64]
}

func genDeltaStream(rng *rand.Rand, rounds, per int, mr, mc, ar, ac, br, bc Index) deltaStream {
	gen := func(nr, nc Index) [][]matrix.Update[float64] {
		out := make([][]matrix.Update[float64], rounds)
		for r := range out {
			batch := make([]matrix.Update[float64], per)
			for k := range batch {
				batch[k] = matrix.Update[float64]{
					Row: Index(rng.Intn(int(nr))), Col: Index(rng.Intn(int(nc))),
					Val:    rng.Float64()*2 - 1,
					Delete: rng.Intn(3) == 0,
				}
			}
			out[r] = batch
		}
		return out
	}
	return deltaStream{m: gen(mr, mc), a: gen(ar, ac), b: gen(br, bc)}
}

// dirtyFrontier is the reference frontier rule, derived by a full scan of
// A: the changed rows of M and A (amMark), plus every other row i that
// has some k in A(i,:) with a changed column j in J_k = bCols[k] (B's
// noted columns of row k) that the mask admits, (j ∈ M(i,:)) != complement. m and a are the current mask
// and A. The product derives the same set through its column index of A;
// refreshExact holds it to this scan.
func dirtyFrontier(m, a *matrix.Pattern, complement bool, amMark []bool, bCols [][]Index) []Index {
	var frontier []Index
	for i := Index(0); i < a.NRows; i++ {
		in := amMark[i]
		for _, k := range a.Row(i) {
			for _, j := range bCols[k] {
				if _, inMask := slices.BinarySearch(m.Row(i), j); inMask != complement {
					in = true
				}
			}
		}
		if in {
			frontier = append(frontier, i)
		}
	}
	return frontier
}

// refreshExact refreshes p and fails unless the renewed rows are exactly
// what the pending batches require: every row on the first refresh, none
// when clean, and the dirtyFrontier scan otherwise. It also checks the
// multiply callback: a plus-pair product, which patches every frontier
// row by count changes, must call it for its first refresh only; any
// other product calls it for the whole rule, which Frontier must name
// inside the callback.
func refreshExact(t *testing.T, p *DeltaProduct[float64], mult DeltaMult[float64]) (*matrix.CSR[float64], []Index) {
	t.Helper()
	var want, wantMult []Index
	cm, ca := p.m.Current().Pattern(), p.a.Current().Pattern()
	switch {
	case p.c == nil:
		for i := Index(0); i < cm.NRows; i++ {
			want = append(want, i)
		}
	case p.Dirty() > 0:
		bCols := make([][]Index, len(p.bNote.ents))
		for k, ents := range p.bNote.ents {
			for _, e := range ents {
				bCols[k] = append(bCols[k], e.col)
			}
		}
		want = dirtyFrontier(cm, ca, p.complement, p.amMark, bCols)
		wantMult = want
	}
	first := p.c == nil
	wantCall := first || (p.bump == nil && len(wantMult) > 0)
	var inFlight []Index
	called := false
	got, rows, err := p.Refresh(func(msub *matrix.Pattern, asub, b *matrix.CSR[float64]) (*matrix.CSR[float64], error) {
		called = true
		inFlight = slices.Clone(p.Frontier())
		if !first && len(inFlight) != int(msub.NRows) {
			t.Errorf("Frontier names %d rows, sub-operands hold %d", len(inFlight), msub.NRows)
		}
		return mult(msub, asub, b)
	})
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if !slices.Equal(rows, want) {
		t.Fatalf("refresh renewed rows %v, the frontier rule requires %v", rows, want)
	}
	if called != wantCall {
		t.Fatalf("refresh called its DeltaMult: %v, want %v (first refresh %v, plus-pair %v)", called, wantCall, first, p.bump != nil)
	}
	if called && !slices.Equal(inFlight, wantMult) {
		t.Fatalf("Frontier in the callback = %v, want %v", inFlight, wantMult)
	}
	if p.Frontier() != nil {
		t.Fatal("Frontier is set outside Refresh")
	}
	return got, want
}

// deltaEquivConfig replays the stream under one (variant, complement, rep,
// schedule, semiring) configuration — skewed runs every product on its
// operands' cost profile marked skewed (equal-cost spans), otherwise no
// profile (equal-row chunks): after every prefix — including a
// mid-stream Compact — the incrementally refreshed output must be
// bit-identical to a from-scratch multiply on the overlays' current
// (compacted) content.
func deltaEquivConfig(t *testing.T, v Variant, comp bool, rep MaskRep, skewed bool,
	sr semiring.Semiring[float64], baseM, baseA, baseB *matrix.CSR[float64], stream deltaStream) {
	t.Helper()
	newOverlay := func(base *matrix.CSR[float64]) *matrix.DeltaCSR[float64] {
		d, err := matrix.NewDeltaCSR(base)
		if err != nil {
			t.Fatal(err)
		}
		d.SetMergeThreshold(0.1) // small threshold: exercise auto-compact too
		return d
	}
	dm, da, db := newOverlay(baseM), newOverlay(baseA), newOverlay(baseB)
	p := NewDeltaProductComplement(dm, da, db, comp, sr)
	opt := func(m *matrix.Pattern, a, b *matrix.CSR[float64]) Options {
		o := Options{Threads: 2, Grain: 3, Complement: comp}
		if skewed {
			o.RowCosts = ComputeRowCosts(m, a.Pattern(), b.Pattern(), o.Workers())
			if o.RowCosts != nil {
				o.RowCosts.Skewed = true
			}
		}
		return o
	}
	mult := func(msub *matrix.Pattern, asub, b *matrix.CSR[float64]) (*matrix.CSR[float64], error) {
		return runRep(v, rep, msub, asub, b, sr, opt(msub, asub, b))
	}
	eqBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	check := func(round int) {
		t.Helper()
		got, _ := refreshExact(t, p, mult)
		cm, ca, cb := dm.Current().Pattern(), da.Current(), db.Current()
		want, err := runRep(v, rep, cm, ca, cb, sr, opt(cm, ca, cb))
		if err != nil {
			t.Fatalf("round %d: rebuild: %v", round, err)
		}
		if !matrix.Equal(got, want, eqBits) {
			t.Fatalf("round %d: incremental output not bit-identical to rebuild", round)
		}
	}
	check(-1) // initial full product
	rounds := len(stream.m)
	for r := 0; r < rounds; r++ {
		if err := p.Apply(DeltaM, stream.m[r]); err != nil {
			t.Fatal(err)
		}
		if err := p.Apply(DeltaA, stream.a[r]); err != nil {
			t.Fatal(err)
		}
		if err := p.Apply(DeltaB, stream.b[r]); err != nil {
			t.Fatal(err)
		}
		if r == rounds/2 {
			// Mid-stream compaction with dirty rows pending must not
			// change the refreshed output.
			p.Compact()
		}
		check(r)
	}
}

// TestDeltaEquivalenceBattery is the incremental-vs-rebuild property test:
// across all 12 variants × 3 mask representations × 3 named semirings ×
// both schedules (no cost profile, a skewed one), plus complemented masks
// and a mid-stream Compact, every prefix of a seeded random insert/delete
// stream yields an incremental output bit-identical to a from-scratch
// multiply on the compacted operands.
func TestDeltaEquivalenceBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const m, k, n = 29, 23, 31
	baseM := randFloatCSR(rng, m, n, 0.3)
	baseA := randFloatCSR(rng, m, k, 0.25)
	baseB := randFloatCSR(rng, k, n, 0.25)
	stream := genDeltaStream(rng, 5, 4, m, n, m, k, k, n)
	semirings := []semiring.Semiring[float64]{
		semiring.Arithmetic(), semiring.PlusPairF(), semiring.MinPlus(),
	}
	for _, sr := range semirings {
		sr := sr
		t.Run(sr.Name, func(t *testing.T) {
			for _, v := range AllVariants() {
				for _, comp := range []bool{false, true} {
					if comp && !v.SupportsComplement() {
						continue
					}
					for _, rep := range []MaskRep{RepCSR, RepBitmap, RepDense} {
						for _, skewed := range []bool{false, true} {
							deltaEquivConfig(t, v, comp, rep, skewed, sr,
								baseM, baseA, baseB, stream)
						}
					}
				}
			}
		})
	}
}

// TestDeltaAliasedOverlays runs the graph-stream shape — M, A and B are
// one overlay — asserting per-prefix bit-identity and that DeltaAll
// batches dirty both operand roles exactly once, on a product built
// without a semiring (which recomputes the whole frontier) and on one
// built with PlusPairF (which patches the rows reached only through B).
func TestDeltaAliasedOverlays(t *testing.T) {
	const n = 31
	sr := semiring.PlusPairF()
	for _, pair := range []bool{false, true} {
		rng := rand.New(rand.NewSource(9))
		g, err := matrix.NewDeltaCSR(randFloatCSR(rng, n, n, 0.2))
		if err != nil {
			t.Fatal(err)
		}
		p := NewDeltaProduct(g, g, g)
		if pair {
			p = NewDeltaProductComplement(g, g, g, false, sr)
		}
		deltaAliased(t, rng, g, p, sr)
	}
}

func deltaAliased(t *testing.T, rng *rand.Rand, g *matrix.DeltaCSR[float64], p *DeltaProduct[float64], sr semiring.Semiring[float64]) {
	const n = 31
	if len(p.Overlays()) != 1 {
		t.Fatalf("aliased product tracks %d overlays, want 1", len(p.Overlays()))
	}
	mult := func(msub *matrix.Pattern, asub, b *matrix.CSR[float64]) (*matrix.CSR[float64], error) {
		return MaskedSpGEMM(Variant{Alg: Hash, Phase: TwoPhase}, msub, asub, b, sr,
			Options{Threads: 2})
	}
	eqBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	refreshExact(t, p, mult)
	for round := 0; round < 6; round++ {
		batch := make([]matrix.Update[float64], 5)
		for k := range batch {
			batch[k] = matrix.Update[float64]{
				Row: Index(rng.Intn(n)), Col: Index(rng.Intn(n)),
				Val: 1, Delete: rng.Intn(3) == 0,
			}
		}
		if err := p.Apply(DeltaAll, batch); err != nil {
			t.Fatal(err)
		}
		got, recomputed := refreshExact(t, p, mult)
		if len(recomputed) == 0 {
			t.Fatalf("round %d: refresh recomputed no rows after a batch", round)
		}
		cur := g.Current()
		want, err := MaskedSpGEMM(Variant{Alg: Hash, Phase: TwoPhase},
			cur.Pattern(), cur, cur, sr, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got, want, eqBits) {
			t.Fatalf("round %d: aliased incremental output diverged from rebuild", round)
		}
	}
}

// TestDeltaCountPathInt64 streams DeltaAll batches over one int64
// overlay under PlusPair, the count path's other operator type: every
// refresh must equal a rebuild.
func TestDeltaCountPathInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 31
	f := randFloatCSR(rng, n, n, 0.2)
	g, err := matrix.NewDeltaCSR(&matrix.CSR[int64]{NRows: n, NCols: n,
		RowPtr: f.RowPtr, Col: f.Col, Val: make([]int64, len(f.Col))})
	if err != nil {
		t.Fatal(err)
	}
	sr := semiring.PlusPair()
	p := NewDeltaProductComplement(g, g, g, false, sr)
	if p.bump == nil {
		t.Fatal("PlusPair over int64 is not on the count path")
	}
	v := Variant{Alg: MSA, Phase: OnePhase}
	mult := func(msub *matrix.Pattern, asub, b *matrix.CSR[int64]) (*matrix.CSR[int64], error) {
		return MaskedSpGEMM(v, msub, asub, b, sr, Options{Threads: 2})
	}
	for round := 0; round < 8; round++ {
		if round > 0 {
			batch := make([]matrix.Update[int64], 6)
			for k := range batch {
				batch[k] = matrix.Update[int64]{Row: Index(rng.Intn(n)), Col: Index(rng.Intn(n)),
					Val: 1, Delete: rng.Intn(3) == 0}
			}
			if err := p.Apply(DeltaAll, batch); err != nil {
				t.Fatal(err)
			}
		}
		got, _, err := p.Refresh(mult)
		if err != nil {
			t.Fatal(err)
		}
		cur := g.Current()
		want, err := MaskedSpGEMM(v, cur.Pattern(), cur, cur, sr, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got, want, func(x, y int64) bool { return x == y }) {
			t.Fatalf("round %d: int64 count path diverged from rebuild", round)
		}
	}
}

// TestDeltaApplyAtomicAcrossOverlays: a batch that is in range for A but
// out of range for B must reject without mutating either overlay when
// applied with DeltaAll.
func TestDeltaApplyAtomicAcrossOverlays(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	baseA := randFloatCSR(rng, 10, 8, 0.3) // 10x8
	baseB := randFloatCSR(rng, 8, 6, 0.3)  // 8x6
	baseM := randFloatCSR(rng, 10, 6, 0.3)
	dm, _ := matrix.NewDeltaCSR(baseM)
	da, _ := matrix.NewDeltaCSR(baseA)
	db, _ := matrix.NewDeltaCSR(baseB)
	p := NewDeltaProduct(dm, da, db)
	// Row 9 exists in M and A but not in B (8 rows).
	err := p.Apply(DeltaAll, []matrix.Update[float64]{{Row: 9, Col: 5, Val: 1}})
	if err == nil {
		t.Fatal("cross-overlay out-of-range batch accepted")
	}
	if dm.Pending() != 0 || da.Pending() != 0 || db.Pending() != 0 || p.Dirty() != 0 {
		t.Fatal("rejected batch left pending state behind")
	}
	// Targeted application to A alone is fine.
	if err := p.Apply(DeltaA, []matrix.Update[float64]{{Row: 9, Col: 5, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	if p.Dirty() != 1 {
		t.Fatalf("dirty rows = %d, want 1", p.Dirty())
	}
}

// TestDirtyFrontierDerivation checks the mask-aware frontier rule through
// DeltaProduct.Apply and Refresh on overlays that are not aliased: a
// changed B(k,j) pulls in row i only if A(i,k) != 0 and the mask admits j
// in row i, while a changed M or A row is always recomputed. Every
// refresh must renew exactly the dirtyFrontier rows and still match a
// rebuild, on Arithmetic and on PlusPairF, whose product patches the rows
// reached only through B.
func TestDirtyFrontierDerivation(t *testing.T) {
	// A(0,:) = {1}, A(1,:) = {1, 2}, A(2,:) = {}.
	// M(0,:) = {0}, M(1,:) = {2}, M(2,:) = {0, 1, 2}.
	// B(1,:) = {1}, B(2,:) = {2}.
	baseA := csr3([][]Index{{1}, {1, 2}, {}})
	baseM := csr3([][]Index{{0}, {2}, {0, 1, 2}})
	baseB := csr3([][]Index{{}, {1}, {2}})
	v := Variant{Alg: MSA, Phase: OnePhase}
	eqBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	frontier := func(sr semiring.Semiring[float64], comp bool, op DeltaOperand, u matrix.Update[float64]) []Index {
		t.Helper()
		var ov [3]*matrix.DeltaCSR[float64]
		for k, base := range []*matrix.CSR[float64]{baseM, baseA, baseB} {
			d, err := matrix.NewDeltaCSR(base)
			if err != nil {
				t.Fatal(err)
			}
			ov[k] = d
		}
		p := NewDeltaProductComplement(ov[0], ov[1], ov[2], comp, sr)
		mult := func(msub *matrix.Pattern, asub, b *matrix.CSR[float64]) (*matrix.CSR[float64], error) {
			return MaskedSpGEMM(v, msub, asub, b, sr, Options{Threads: 1, Complement: comp})
		}
		refreshExact(t, p, mult)
		if err := p.Apply(op, []matrix.Update[float64]{u}); err != nil {
			t.Fatal(err)
		}
		got, rows := refreshExact(t, p, mult)
		cm, ca, cb := ov[0].Current().Pattern(), ov[1].Current(), ov[2].Current()
		want, err := MaskedSpGEMM(v, cm, ca, cb, sr, Options{Threads: 1, Complement: comp})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got, want, eqBits) {
			t.Fatalf("%s complement=%v op=%d update %+v: refresh diverged from rebuild", sr.Name, comp, op, u)
		}
		return rows
	}
	cases := []struct {
		name string
		comp bool
		op   DeltaOperand
		u    matrix.Update[float64]
		want []Index
	}{
		// B(1,0) is new: A rows 0 and 1 reference B row 1, but only M(0,:)
		// holds column 0, so row 1 stays out.
		{"B change outside M(1,:)", false, DeltaB, matrix.Update[float64]{Row: 1, Col: 0, Val: 5}, []Index{0}},
		// Complemented, the mask admits exactly the other row.
		{"B change under complement", true, DeltaB, matrix.Update[float64]{Row: 1, Col: 0, Val: 5}, []Index{1}},
		// B(2,2) already holds 1: a value-only overwrite at a column M(1,:)
		// admits still changes C(1,2).
		{"B value overwrite", false, DeltaB, matrix.Update[float64]{Row: 2, Col: 2, Val: 7}, []Index{1}},
		// A changed M or A row is in whatever the mask admits.
		{"M row change", false, DeltaM, matrix.Update[float64]{Row: 2, Col: 0, Delete: true}, []Index{2}},
		{"M row change under complement", true, DeltaM, matrix.Update[float64]{Row: 0, Col: 1, Val: 1}, []Index{0}},
		{"A row change", false, DeltaA, matrix.Update[float64]{Row: 2, Col: 0, Val: 3}, []Index{2}},
		{"A row change under complement", true, DeltaA, matrix.Update[float64]{Row: 0, Col: 1, Delete: true}, []Index{0}},
	}
	for _, sr := range []semiring.Semiring[float64]{semiring.Arithmetic(), semiring.PlusPairF()} {
		for _, tc := range cases {
			got := frontier(sr, tc.comp, tc.op, tc.u)
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s, %s: frontier = %v, want %v", sr.Name, tc.name, got, tc.want)
			}
		}
	}
}

// csr3 builds a 3×3 CSR holding 1 at the listed columns of each row.
func csr3(rows [][]Index) *matrix.CSR[float64] {
	coo := &matrix.COO[float64]{NRows: 3, NCols: 3}
	for i, cols := range rows {
		for _, j := range cols {
			coo.Row, coo.Col, coo.Val = append(coo.Row, Index(i)), append(coo.Col, j), append(coo.Val, 1)
		}
	}
	return matrix.NewCSRFromCOO(coo, func(x, y float64) float64 { return x + y })
}

// TestDirtyFrontierColumnIndex walks the column index of A through its
// life on overlays that are not aliased: built at the first refresh with B
// changes, extended by A inserts, left with stale entries by A deletes
// (of a base entry, and of an entry inserted since the build), and
// rebuilt after A is compacted behind the product and after an
// auto-compaction. Every refresh must recompute exactly the dirtyFrontier
// rows and match a rebuild.
func TestDirtyFrontierColumnIndex(t *testing.T) {
	// A(0,:) = {1}, A(1,:) = {1, 2}, A(2,:) = {}.
	// M(0,:) = {0}, M(1,:) = {2}, M(2,:) = {0, 1, 2}.
	// B(1,:) = {1}, B(2,:) = {2}.
	var ov [3]*matrix.DeltaCSR[float64]
	for k, rows := range [][][]Index{
		{{0}, {2}, {0, 1, 2}},
		{{1}, {1, 2}, {}},
		{{}, {1}, {2}},
	} {
		d, err := matrix.NewDeltaCSR(csr3(rows))
		if err != nil {
			t.Fatal(err)
		}
		d.SetMergeThreshold(100) // no auto-compaction until asked for
		ov[k] = d
	}
	dm, da, db := ov[0], ov[1], ov[2]
	p := NewDeltaProduct(dm, da, db)
	v := Variant{Alg: MSA, Phase: OnePhase}
	sr := semiring.Arithmetic()
	mult := func(msub *matrix.Pattern, asub, b *matrix.CSR[float64]) (*matrix.CSR[float64], error) {
		return MaskedSpGEMM(v, msub, asub, b, sr, Options{Threads: 1})
	}
	eqBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	refreshExact(t, p, mult)
	set := func(i, j Index, v float64) matrix.Update[float64] {
		return matrix.Update[float64]{Row: i, Col: j, Val: v}
	}
	del := func(i, j Index) matrix.Update[float64] { return matrix.Update[float64]{Row: i, Col: j, Delete: true} }
	var preCompact, preAuto *matrix.CSR[float64]
	steps := []struct {
		name   string
		before func() // runs before the batch
		op     DeltaOperand
		u      matrix.Update[float64]
		want   []Index
	}{
		{"B change builds the index", nil, DeltaB, set(1, 0, 5), []Index{0}},
		{"A insert is indexed", nil, DeltaA, set(2, 1, 1), []Index{2}},
		{"A insert deleted again", nil, DeltaA, del(2, 1), []Index{2}},
		// Row 2 is still listed under column 1, but A(2,1) is gone.
		{"stale inserted entry skipped", nil, DeltaB, set(1, 0, 6), []Index{0}},
		{"A base entry deleted", nil, DeltaA, del(1, 1), []Index{1}},
		// M(1,:) admits column 2, but A(1,1) is gone.
		{"stale base entry skipped", nil, DeltaB, set(1, 2, 3), nil},
		{"M change", nil, DeltaM, set(0, 2, 1), []Index{0}},
		{"B change after an M change", nil, DeltaB, set(1, 2, 2), []Index{0}},
		{"A compacted behind the product", func() { preCompact = da.Base(); da.Compact() }, DeltaB, set(2, 2, 9), []Index{1}},
		{"A auto-compacts", func() { da.SetMergeThreshold(0.01); preAuto = da.Base() }, DeltaA, set(2, 2, 1), []Index{2}},
		{"B change after the auto-compaction", nil, DeltaB, set(2, 2, 4), []Index{1, 2}},
	}
	for _, st := range steps {
		if st.before != nil {
			st.before()
		}
		if err := p.Apply(st.op, []matrix.Update[float64]{st.u}); err != nil {
			t.Fatal(err)
		}
		got, rows := refreshExact(t, p, mult)
		if !slices.Equal(rows, st.want) {
			t.Errorf("%s: frontier = %v, want %v", st.name, rows, st.want)
		}
		if st.op == DeltaB && p.atBase != da.Base() {
			t.Errorf("%s: column index built on a stale base of A", st.name)
		}
		cm, ca, cb := dm.Current().Pattern(), da.Current(), db.Current()
		want, err := MaskedSpGEMM(v, cm, ca, cb, sr, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got, want, eqBits) {
			t.Fatalf("%s: refresh diverged from rebuild", st.name)
		}
	}
	if preCompact == nil || preAuto == nil || da.Base() == preAuto {
		t.Fatal("A was not compacted as the steps require")
	}
}
