package planner

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// denseRunPattern builds an nrows×ncols mask whose rows are full runs
// [0, ncols) — the dense direct-index shape.
func denseRunPattern(nrows, ncols Index) *matrix.Pattern {
	coo := &matrix.COO[float64]{NRows: nrows, NCols: ncols}
	for i := Index(0); i < nrows; i++ {
		for j := Index(0); j < ncols; j++ {
			coo.Row = append(coo.Row, i)
			coo.Col = append(coo.Col, j)
			coo.Val = append(coo.Val, 1)
		}
	}
	return matrix.NewCSRFromCOO(coo, func(a, b float64) float64 { return 1 }).Pattern()
}

// TestPlanBlocksCarryReps checks that every analyzed block resolves a
// concrete representation and that Explain reports it.
func TestPlanBlocksCarryReps(t *testing.T) {
	g := grgen.ErdosRenyi(1<<11, 16, 1)
	p := Analyze(g.Pattern(), g.Pattern(), g.Pattern(), core.Options{})
	for _, b := range p.Blocks {
		if b.Rep == core.RepAuto {
			t.Fatalf("block [%d,%d) left RepAuto unresolved", b.Lo, b.Hi)
		}
	}
	out := p.Explain()
	if !strings.Contains(out, "mask=") {
		t.Fatalf("Explain does not report the representation per block:\n%s", out)
	}
}

// TestDenseRunMaskSelectsDenseRep: a mask of contiguous runs must plan the
// dense direct-index representation (and record the run statistics).
func TestDenseRunMaskSelectsDenseRep(t *testing.T) {
	const n = 1 << 11
	mask := denseRunPattern(n, 64)
	a := grgen.ErdosRenyi(n, 8, 1)
	// B must be n-col-compatible: reuse a 64-col slice shape via a fresh
	// Erdős–Rényi rectangle built from COO.
	coo := &matrix.COO[float64]{NRows: n, NCols: 64}
	for i := Index(0); i < n; i++ {
		coo.Row = append(coo.Row, i)
		coo.Col = append(coo.Col, i%64)
		coo.Val = append(coo.Val, 1)
	}
	b := matrix.NewCSRFromCOO(coo, func(x, y float64) float64 { return x + y })
	p := Analyze(mask, a.Pattern(), b.Pattern(), core.Options{})
	if p.Stats.MaskRunRows != int64(n) {
		t.Fatalf("MaskRunRows = %d, want %d", p.Stats.MaskRunRows, n)
	}
	sawDense := false
	for _, blk := range p.Blocks {
		if blk.Rep == core.RepDense {
			sawDense = true
		}
	}
	if !sawDense {
		t.Fatalf("no block selected the dense representation:\n%s", p.Explain())
	}
	// The plan must execute and match a one-block CSR run exactly.
	sr := semiring.Arithmetic()
	got, err := Execute(p, mask, a, b, sr, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	csr := []core.ExecBlock{{Lo: 0, Hi: n, Alg: p.Variant().Alg, Rep: core.RepCSR}}
	want, err := core.MaskedSpGEMMBlocked(p.Phase, csr, mask, a, b, nil, sr, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, want, func(x, y float64) bool { return x == y }) {
		t.Fatal("dense-rep plan result differs from the CSR run")
	}
}
