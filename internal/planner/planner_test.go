package planner

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// planAlgs returns the set of algorithm families a plan uses.
func planAlgs(p *Plan) map[core.Algorithm]bool {
	out := map[core.Algorithm]bool{}
	for _, b := range p.Blocks {
		out[b.Alg] = true
	}
	return out
}

// TestHeuristicBoundaries pins the §8 regime boundaries on the Fig. 7
// Erdős–Rényi grid: sparse mask → Inner, sparse inputs → Heap/HeapDot,
// comparable densities → MSA/Hash.
func TestHeuristicBoundaries(t *testing.T) {
	const n = 1 << 12
	mk := func(deg float64, seed uint64) *matrix.CSR[float64] {
		return grgen.ErdosRenyi(n, deg, seed)
	}
	cases := []struct {
		name         string
		maskDeg, deg float64
		want         map[core.Algorithm]bool
	}{
		{"sparseMask", 1, 64, map[core.Algorithm]bool{core.Inner: true}},
		{"sparseInputs", 256, 1, map[core.Algorithm]bool{core.Heap: true, core.HeapDot: true}},
		{"comparable", 16, 16, map[core.Algorithm]bool{core.MSA: true, core.Hash: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := mk(tc.deg, 1)
			b := mk(tc.deg, 2)
			mask := mk(tc.maskDeg, 3).Pattern()
			p := Analyze(mask, a.Pattern(), b.Pattern(), core.Options{})
			for alg := range planAlgs(p) {
				if !tc.want[alg] {
					t.Fatalf("%s regime chose %s:\n%s", tc.name, alg, p.Explain())
				}
			}
			if p.Phase != core.OnePhase {
				t.Fatalf("%s: normal mask must plan one-phase, got %s", tc.name, p.Phase)
			}
		})
	}
}

// TestPlanProperty is the safety property sweep: over a grid of random
// instances and both mask modes, every emitted plan tiles the row space
// exactly, coalesces every pair of neighbours that share an algorithm,
// never assigns MCA (or the pull kernel) under a complemented mask, and
// executes without error.
func TestPlanProperty(t *testing.T) {
	graphs := []*matrix.CSR[float64]{
		grgen.RMAT(9, 8, 1),
		grgen.RMAT(10, 4, 2),
		grgen.ErdosRenyi(700, 3, 3),
		grgen.BarabasiAlbert(900, 3, 4),
		grgen.Grid2D(30, 30),
		matrix.NewEmptyCSR[float64](0, 0),
		matrix.NewEmptyCSR[float64](5, 5),
	}
	sr := semiring.Arithmetic()
	for gi, g := range graphs {
		for _, complement := range []bool{false, true} {
			opt := core.Options{Complement: complement}
			p := Analyze(g.Pattern(), g.Pattern(), g.Pattern(), opt)
			next := Index(0)
			for _, b := range p.Blocks {
				if b.Lo != next || b.Hi < b.Lo {
					t.Fatalf("graph %d: blocks do not tile: [%d,%d) after %d", gi, b.Lo, b.Hi, next)
				}
				next = b.Hi
				if complement && (b.Alg == core.MCA || b.Alg == core.Inner) {
					t.Fatalf("graph %d: %s planned under complement", gi, b.Alg)
				}
			}
			if next != g.NRows {
				t.Fatalf("graph %d: blocks cover [0,%d), want [0,%d)", gi, next, g.NRows)
			}
			checkCoalesced(t, p)
			if _, err := Execute(p, g.Pattern(), g, g, sr, opt, nil); err != nil {
				t.Fatalf("graph %d complement=%v: execute: %v", gi, complement, err)
			}
		}
	}
}

// TestAutoMatchesEveryFixedVariant: the planned product is bit-identical to
// every fixed variant on random R-MAT inputs, in both mask modes.
func TestAutoMatchesEveryFixedVariant(t *testing.T) {
	sr := semiring.PlusPairF()
	eq := func(x, y float64) bool { return x == y }
	for seed := uint64(1); seed <= 3; seed++ {
		g := grgen.RMAT(9, 8, seed)
		a := grgen.RMAT(9, 4, seed+10)
		mask := grgen.ErdosRenyi(g.NRows, 4, seed+20).Pattern()
		for _, complement := range []bool{false, true} {
			opt := core.Options{Complement: complement}
			p := Analyze(mask, a.Pattern(), g.Pattern(), opt)
			got, err := Execute(p, mask, a, g, sr, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range core.AllVariants() {
				if complement && !v.SupportsComplement() {
					continue
				}
				want, err := core.MaskedSpGEMM(v, mask, a, g, sr, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !matrix.Equal(got, want, eq) {
					t.Fatalf("seed %d complement=%v: plan disagrees with %s\n%s",
						seed, complement, v.Name(), p.Explain())
				}
			}
		}
	}
}

// TestComplementMemoryTightPlansTwoPhase: a complemented mask over
// flop-heavy operands makes the 1P allocation bound balloon past the
// operand footprint; the §6 rule must switch to two-phase.
func TestComplementMemoryTightPlansTwoPhase(t *testing.T) {
	g := grgen.ErdosRenyi(1<<11, 48, 7)
	mask := grgen.ErdosRenyi(1<<11, 1, 8).Pattern()
	p := Analyze(mask, g.Pattern(), g.Pattern(), core.Options{Complement: true})
	if p.Phase != core.TwoPhase {
		t.Fatalf("memory-tight complement plan must be 2P:\n%s", p.Explain())
	}
	if p.Stats.Bound1P <= p.Stats.NNZM+p.Stats.NNZA+p.Stats.NNZB {
		t.Fatalf("test premise broken: bound %d not memory-tight", p.Stats.Bound1P)
	}
	// The same operands with a normal mask stay 1P (bound = nnz(M)).
	if p2 := Analyze(mask, g.Pattern(), g.Pattern(), core.Options{}); p2.Phase != core.OnePhase {
		t.Fatalf("normal mask must plan 1P, got %s", p2.Phase)
	}
}

// mixedFixture builds operands whose Auto plan is mixed: the top half of
// the rows has a dense mask over about one flop per row (a heap variant),
// the bottom half a two-entry mask over about 8192 flops per row (Inner).
func mixedFixture() (*matrix.Pattern, *matrix.CSR[float64], *matrix.CSR[float64]) {
	const n = 4096
	const half = n / 2
	// B: rows 0..63 dense (256 entries), the rest one entry each.
	bcoo := &matrix.COO[float64]{NRows: n, NCols: n}
	for i := Index(0); i < 64; i++ {
		for c := Index(0); c < 256; c++ {
			bcoo.Row = append(bcoo.Row, i)
			bcoo.Col = append(bcoo.Col, (c*16+i)%n)
			bcoo.Val = append(bcoo.Val, 1)
		}
	}
	for i := Index(64); i < n; i++ {
		bcoo.Row = append(bcoo.Row, i)
		bcoo.Col = append(bcoo.Col, i)
		bcoo.Val = append(bcoo.Val, 1)
	}
	b := matrix.NewCSRFromCOO(bcoo, nil)
	// A: top half rows reference one sparse B row (≈1 flop); bottom half
	// rows reference 32 dense B rows (≈8192 flops).
	acoo := &matrix.COO[float64]{NRows: n, NCols: n}
	for i := Index(0); i < half; i++ {
		acoo.Row = append(acoo.Row, i)
		acoo.Col = append(acoo.Col, 64+(i%(n-64)))
		acoo.Val = append(acoo.Val, 1)
	}
	for i := Index(half); i < n; i++ {
		for k := Index(0); k < 32; k++ {
			acoo.Row = append(acoo.Row, i)
			acoo.Col = append(acoo.Col, (k+i)%64)
			acoo.Val = append(acoo.Val, 1)
		}
	}
	a := matrix.NewCSRFromCOO(acoo, nil)
	// Mask: top half rows dense (256 entries ≫ flops), bottom half sparse
	// (2 entries ≪ flops).
	mcoo := &matrix.COO[float64]{NRows: n, NCols: n}
	for i := Index(0); i < half; i++ {
		for c := Index(0); c < 256; c++ {
			mcoo.Row = append(mcoo.Row, i)
			mcoo.Col = append(mcoo.Col, (c*7+i)%n)
			mcoo.Val = append(mcoo.Val, 1)
		}
	}
	for i := Index(half); i < n; i++ {
		mcoo.Row = append(mcoo.Row, i, i)
		mcoo.Col = append(mcoo.Col, i%64, (i+13)%64)
		mcoo.Val = append(mcoo.Val, 1, 1)
	}
	return matrix.NewCSRFromCOO(mcoo, nil).Pattern(), a, b
}

// TestMixedPlanOnSkewedProfile: a row space whose halves sit in opposite
// Fig. 7 corners gets a mixed plan, and the mixed execution is
// bit-identical to a fixed variant.
func TestMixedPlanOnSkewedProfile(t *testing.T) {
	mask, a, b := mixedFixture()
	p := Analyze(mask, a.Pattern(), b.Pattern(), core.Options{})
	if !p.Mixed() {
		t.Fatalf("skewed profile should produce a mixed plan:\n%s", p.Explain())
	}
	algs := planAlgs(p)
	if !algs[core.Heap] && !algs[core.HeapDot] {
		t.Fatalf("dense-mask half should run a heap variant:\n%s", p.Explain())
	}
	if !algs[core.Inner] {
		t.Fatalf("sparse-mask half should run Inner:\n%s", p.Explain())
	}
	sr := semiring.Arithmetic()
	var stats []core.BlockStat
	got, err := Execute(p, mask, a, b, sr, core.Options{}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != len(p.Blocks) {
		t.Fatalf("got %d block stats for %d blocks", len(stats), len(p.Blocks))
	}
	var outSum int64
	for _, s := range stats {
		outSum += s.OutNNZ
	}
	if outSum != int64(got.NNZ()) {
		t.Fatalf("block stats out nnz %d != result nnz %d", outSum, got.NNZ())
	}
	want, err := core.MaskedSpGEMM(core.Variant{Alg: core.MSA, Phase: core.OnePhase}, mask, a, b, sr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, want, func(x, y float64) bool { return x == y }) {
		t.Fatal("mixed execution disagrees with MSA-1P")
	}
}

// checkCoalesced fails the test when two adjacent blocks of pl share an
// algorithm: a block carries nothing else, so such neighbours must have
// been merged.
func checkCoalesced(t *testing.T, pl *Plan) {
	t.Helper()
	for k := 1; k < len(pl.Blocks); k++ {
		if pl.Blocks[k].Alg == pl.Blocks[k-1].Alg {
			t.Fatalf("blocks %d and %d share %s and were not coalesced:\n%s", k-1, k, pl.Blocks[k].Alg, pl.Explain())
		}
	}
}

// TestPlanRestrict cuts a mixed plan to scattered rows: each row keeps
// its block's Alg, the blocks tile the rows and differ from their
// neighbours, each row keeps its cost from the full profile, the full plan
// is untouched, and the sub-plan computes the full product's rows.
func TestPlanRestrict(t *testing.T) {
	mask, a, b := mixedFixture()
	p := Analyze(mask, a.Pattern(), b.Pattern(), core.Options{})
	if !p.Mixed() || p.Costs == nil {
		t.Fatalf("fixture plan should be mixed with a cost profile:\n%s", p.Explain())
	}
	blockOf := func(pl *Plan, i Index) Block {
		t.Helper()
		for _, blk := range pl.Blocks {
			if blk.Lo <= i && i < blk.Hi {
				return blk
			}
		}
		t.Fatalf("row %d outside every block", i)
		return Block{}
	}
	var rows []Index
	for _, blk := range p.Blocks {
		rows = append(rows, blk.Lo, blk.Hi-1)
	}
	for i := Index(3); i < mask.NRows; i += 97 {
		rows = append(rows, i)
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	checkCoalesced(t, p)
	before := slices.Clone(p.Blocks)
	q := p.Restrict(rows)
	if !slices.Equal(p.Blocks, before) {
		t.Fatal("Restrict modified the full plan")
	}
	if q.Stats.NRows != Index(len(rows)) || q.Phase != p.Phase {
		t.Fatalf("sub-plan has %d rows and phase %v, want %d and %v", q.Stats.NRows, q.Phase, len(rows), p.Phase)
	}
	next := Index(0)
	for k, blk := range q.Blocks {
		if blk.Lo != next || blk.Hi <= blk.Lo {
			t.Fatalf("block %d = [%d,%d) does not continue the tiling at %d", k, blk.Lo, blk.Hi, next)
		}
		next = blk.Hi
	}
	checkCoalesced(t, q)
	if next != Index(len(rows)) {
		t.Fatalf("blocks tile [0,%d), want [0,%d)", next, len(rows))
	}
	if len(q.Costs.Prefix) != len(rows)+1 {
		t.Fatalf("sub-profile has %d prefix entries for %d rows", len(q.Costs.Prefix), len(rows))
	}
	for r, i := range rows {
		sub, full := blockOf(q, Index(r)), blockOf(p, i)
		if sub.Alg != full.Alg {
			t.Fatalf("row %d (full row %d) runs %s, its block runs %s", r, i, sub.Alg, full.Alg)
		}
		if got, want := q.Costs.Prefix[r+1]-q.Costs.Prefix[r], p.Costs.Prefix[i+1]-p.Costs.Prefix[i]; got != want {
			t.Fatalf("row %d (full row %d) costs %d, the full profile says %d", r, i, got, want)
		}
	}
	sr := semiring.Arithmetic()
	full, err := Execute(p, mask, a, b, sr, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(q, matrix.ExtractRowsPattern(nil, mask, rows), matrix.ExtractRows(nil, a, rows), b, sr, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	eqBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !matrix.Equal(got, matrix.ExtractRows(nil, full, rows), eqBits) {
		t.Fatal("restricted plan's rows differ from the full product's")
	}
	if e := p.Restrict(nil); len(e.Blocks) != 1 || e.Blocks[0].Lo != 0 || e.Blocks[0].Hi != 0 {
		t.Fatalf("restricting to no rows gave blocks %+v", e.Blocks)
	}
}

// TestCacheReusesPlans: repeated analysis of the same static operands hits
// the cache; a mask in a different size bucket or a different B identity
// re-analyzes.
func TestCacheReusesPlans(t *testing.T) {
	c := NewCache()
	g := grgen.RMAT(9, 8, 5)
	m1 := grgen.ErdosRenyi(g.NRows, 4, 6).Pattern()
	m2 := grgen.ErdosRenyi(g.NRows, 4, 7).Pattern()  // same density bucket
	m3 := grgen.ErdosRenyi(g.NRows, 64, 8).Pattern() // different bucket
	opt := core.Options{}
	p1 := c.Analyze(m1, g.Pattern(), g.Pattern(), opt)
	if p1.CacheHit {
		t.Fatal("first analysis cannot hit")
	}
	p2 := c.Analyze(m1, g.Pattern(), g.Pattern(), opt)
	if !p2.CacheHit {
		t.Fatal("identical call must hit")
	}
	if p3 := c.Analyze(m2, g.Pattern(), g.Pattern(), opt); !p3.CacheHit {
		t.Fatal("same-bucket mask sweep must hit")
	}
	if p4 := c.Analyze(m3, g.Pattern(), g.Pattern(), opt); p4.CacheHit {
		t.Fatal("different-bucket mask must re-analyze")
	}
	if p5 := c.Analyze(m1, g.Pattern(), g.Pattern(), core.Options{Complement: true}); p5.CacheHit {
		t.Fatal("complement mode must re-analyze")
	}
	g2 := grgen.RMAT(9, 8, 5) // identical content, different identity
	if p6 := c.Analyze(m1, g.Pattern(), g2.Pattern(), opt); p6.CacheHit {
		t.Fatal("different B identity must re-analyze")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("hits=%d misses=%d, want 2/4", st.Hits, st.Misses)
	}
	c = NewCache()
	// A cached plan still executes correctly against the swept mask.
	p := c.Analyze(m2, g.Pattern(), g.Pattern(), opt)
	p = c.Analyze(m2, g.Pattern(), g.Pattern(), opt)
	sr := semiring.Arithmetic()
	got, err := Execute(p, m2, g, g, sr, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.MaskedSpGEMM(core.Variant{Alg: core.MSA, Phase: core.OnePhase}, m2, g, g, sr, opt)
	if !matrix.Equal(got, want, func(x, y float64) bool { return x == y }) {
		t.Fatal("cached plan execution disagrees with MSA-1P")
	}
}

// TestExecuteRejectsModeMismatch: executing a plan under the opposite mask
// mode is an error, not a wrong answer.
func TestExecuteRejectsModeMismatch(t *testing.T) {
	g := grgen.RMAT(8, 4, 9)
	p := Analyze(g.Pattern(), g.Pattern(), g.Pattern(), core.Options{})
	if _, err := Execute(p, g.Pattern(), g, g, semiring.Arithmetic(), core.Options{Complement: true}, nil); err == nil {
		t.Fatal("complement mismatch must error")
	}
}

// TestUnsortedOperandsStayOnPush: kernels requiring sorted rows must not be
// planned when an operand's rows are unsorted.
func TestUnsortedOperandsStayOnPush(t *testing.T) {
	g := grgen.ErdosRenyi(512, 1, 11) // sparse inputs: heap territory if sorted
	mask := grgen.ErdosRenyi(512, 128, 12)
	// Scramble the mask's row order.
	un := mask.Clone()
	for i := Index(0); i < un.NRows; i++ {
		lo, hi := un.RowPtr[i], un.RowPtr[i+1]
		if hi-lo > 1 {
			un.Col[lo], un.Col[hi-1] = un.Col[hi-1], un.Col[lo]
		}
	}
	p := Analyze(un.Pattern(), g.Pattern(), g.Pattern(), core.Options{})
	for alg := range planAlgs(p) {
		if alg != core.MSA && alg != core.Hash {
			t.Fatalf("unsorted operands planned %s:\n%s", alg, p.Explain())
		}
	}
}

// TestCacheRevalidatesSortedness: a cached plan built from sorted operands
// must not run sorted-rows kernels on a later same-bucket unsorted mask.
func TestCacheRevalidatesSortedness(t *testing.T) {
	c := NewCache()
	// Sparse inputs + dense mask → heap-family plan (needs sorted rows).
	g := grgen.ErdosRenyi(2048, 1, 21)
	m1 := grgen.ErdosRenyi(2048, 128, 22)
	p1 := c.Analyze(m1.Pattern(), g.Pattern(), g.Pattern(), core.Options{})
	if !p1.NeedsSortedRows() {
		t.Fatalf("test premise broken: expected a sorted-rows plan\n%s", p1.Explain())
	}
	// Same size bucket, but with scrambled rows.
	m2 := m1.Clone()
	for i := Index(0); i < m2.NRows; i++ {
		lo, hi := m2.RowPtr[i], m2.RowPtr[i+1]
		if hi-lo > 1 {
			m2.Col[lo], m2.Col[hi-1] = m2.Col[hi-1], m2.Col[lo]
		}
	}
	p2 := c.Analyze(m2.Pattern(), g.Pattern(), g.Pattern(), core.Options{})
	if p2.CacheHit {
		t.Fatal("unsorted mask must not reuse a sorted-rows plan")
	}
	for alg := range planAlgs(p2) {
		if alg != core.MSA && alg != core.Hash {
			t.Fatalf("unsorted mask planned %s", alg)
		}
	}
	// The sorted mask still hits afterwards (revalidation passes).
	if p3 := c.Analyze(m1.Pattern(), g.Pattern(), g.Pattern(), core.Options{}); !p3.CacheHit {
		t.Fatal("sorted mask should revalidate and hit")
	}
}

// TestDegenerateZeroValueOperands: zero-value matrices (nil RowPtr) must
// not panic anywhere on the planned path.
func TestDegenerateZeroValueOperands(t *testing.T) {
	m := &matrix.Pattern{}
	z := &matrix.CSR[float64]{}
	p := NewCache().Analyze(m, z.Pattern(), z.Pattern(), core.Options{})
	var stats []core.BlockStat
	out, err := Execute(p, m, z, z, semiring.Arithmetic(), core.Options{}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if out.NNZ() != 0 {
		t.Fatalf("empty operands produced %d entries", out.NNZ())
	}
}
