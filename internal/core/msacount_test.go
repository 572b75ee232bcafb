package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// countingCase builds a product that exercises every clause of the MSA
// counting contract (see accum.MSA): mask keys with no contribution, an
// empty mask row, a row whose A row is empty, and one output entry that
// receives 1200 contributions.
//
//	A (4×1200): row 0 = every column, row 1 = cols 0..9, row 2 empty,
//	            row 3 = cols 0..3.
//	B (1200×8): row p has col 5, plus col p%3 when p < 10.
//	M (4×8):    row 0 = {1, 5, 7}, row 1 empty, row 2 = {0, 5},
//	            row 3 = {2, 5, 6}.
//
// The plus-pair product is then C[0,1] = 3 (p = 1, 4, 7), C[0,5] = 1200,
// C[3,2] = 1 (p = 2) and C[3,5] = 4; C[0,7], C[2,*] and C[3,6] receive
// nothing and must be absent.
func countingCase() (mask *matrix.Pattern, a, b *matrix.CSR[float64], want map[[2]Index]float64) {
	const k = 1200
	ac := &matrix.COO[float64]{NRows: 4, NCols: k}
	addA := func(i, j Index) {
		ac.Row = append(ac.Row, i)
		ac.Col = append(ac.Col, j)
		ac.Val = append(ac.Val, 1)
	}
	for j := Index(0); j < k; j++ {
		addA(0, j)
	}
	for j := Index(0); j < 10; j++ {
		addA(1, j)
	}
	for j := Index(0); j < 4; j++ {
		addA(3, j)
	}
	bc := &matrix.COO[float64]{NRows: k, NCols: 8}
	for p := Index(0); p < k; p++ {
		bc.Row = append(bc.Row, p)
		bc.Col = append(bc.Col, 5)
		bc.Val = append(bc.Val, 1)
		if p < 10 {
			bc.Row = append(bc.Row, p)
			bc.Col = append(bc.Col, p%3)
			bc.Val = append(bc.Val, 1)
		}
	}
	mc := &matrix.COO[float64]{NRows: 4, NCols: 8}
	for _, e := range [][2]Index{{0, 1}, {0, 5}, {0, 7}, {2, 0}, {2, 5}, {3, 2}, {3, 5}, {3, 6}} {
		mc.Row = append(mc.Row, e[0])
		mc.Col = append(mc.Col, e[1])
		mc.Val = append(mc.Val, 1)
	}
	first := func(x, _ float64) float64 { return x }
	return matrix.NewCSRFromCOO(mc, first).Pattern(),
		matrix.NewCSRFromCOO(ac, first), matrix.NewCSRFromCOO(bc, first),
		map[[2]Index]float64{{0, 1}: 3, {0, 5}: 1200, {3, 2}: 1, {3, 5}: 4}
}

// checkCounts asserts that c holds exactly the entries of want.
func checkCounts[T int64 | float64](t *testing.T, label string, c *matrix.CSR[T], want map[[2]Index]float64) {
	t.Helper()
	if c.NNZ() != len(want) {
		t.Fatalf("%s: nnz = %d, want %d", label, c.NNZ(), len(want))
	}
	for i := Index(0); i < c.NRows; i++ {
		for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
			w, ok := want[[2]Index{i, c.Col[p]}]
			if !ok {
				t.Fatalf("%s: unexpected entry (%d,%d) = %v", label, i, c.Col[p], c.Val[p])
			}
			if float64(c.Val[p]) != w {
				t.Fatalf("%s: C(%d,%d) = %v, want %v", label, i, c.Col[p], c.Val[p], w)
			}
		}
	}
}

// TestMSACountingContract pins the plus-pair counting scatter's output
// contract on both element types and both MSA phases: uncontributed mask
// keys and empty mask rows yield nothing, and a 1200-contribution entry
// counts exactly.
func TestMSACountingContract(t *testing.T) {
	mask, af, bf, want := countingCase()
	toI64 := func(v float64) int64 { return int64(v) }
	ai, bi := matrix.MapValues(af, toI64), matrix.MapValues(bf, toI64)
	for _, phase := range []Phase{OnePhase, TwoPhase} {
		v := Variant{MSA, phase}
		for _, threads := range []int{1, 2} {
			opt := Options{Threads: threads, Grain: 1}
			label := v.Name()
			cf, err := runBlock(v, mask, af, bf, semiring.PlusPairF(), opt)
			if err != nil {
				t.Fatalf("%s PlusPairF: %v", label, err)
			}
			checkCounts(t, label+"/PlusPairF", cf, want)
			ci, err := runBlock(v, mask, ai, bi, semiring.PlusPair(), opt)
			if err != nil {
				t.Fatalf("%s PlusPair: %v", label, err)
			}
			checkCounts(t, label+"/PlusPair", ci, want)
		}
	}
}

// TestMSACountingIgnoresScratch runs the plus-pair MSA kernel rows on an
// accumulator whose every value slot holds garbage (NaN, ±Inf, large
// integers), as a pooled accumulator may after another semiring's product.
// The output must match a fresh accumulator's, and the kernel must leave
// every state NotAllowed for the next row or product.
func TestMSACountingIgnoresScratch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	mask := randCSR(r, 30, 40, 0.3).Pattern()
	af, bf := randCSR(r, 30, 25, 0.3), randCSR(r, 25, 40, 0.3)
	garbage := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -7.5, 1e300}
	runRows := func(acc *accum.MSA[float64]) *matrix.CSR[float64] {
		k := &msaKernel[float64]{m: mask, a: af, b: bf,
			lp: opLoopsPlusPair[float64](), acc: acc}
		out := &matrix.CSR[float64]{NRows: mask.NRows, NCols: mask.NCols, RowPtr: make([]Index, mask.NRows+1)}
		col, val := make([]Index, mask.NCols), make([]float64, mask.NCols)
		for i := Index(0); i < mask.NRows; i++ {
			n := k.numericRow(i, col, val)
			out.Col = append(out.Col, col[:n]...)
			out.Val = append(out.Val, val[:n]...)
			out.RowPtr[i+1] = Index(len(out.Col))
		}
		state, _ := acc.Arrays()
		for j, st := range state {
			if st != accum.NotAllowed {
				t.Fatalf("state[%d] = %d after the product, want NotAllowed", j, st)
			}
		}
		return out
	}
	want := runRows(accum.NewMSA[float64](int(mask.NCols)))
	if ref := Reference(mask, af, bf, semiring.PlusPairF(), false); !matrix.Equal(want, ref, eqF) {
		t.Fatal("fresh accumulator disagrees with Reference")
	}
	poisoned := accum.NewMSA[float64](int(mask.NCols))
	_, value := poisoned.Arrays()
	for j := range value {
		value[j] = garbage[j%len(garbage)]
	}
	got := runRows(poisoned)
	if !matrix.Equal(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		t.Fatal("garbage in scratch value slots leaked into the plus-pair output")
	}
}

// TestMSACountingWorkspaceReuse alternates products on one session arena
// (one Workspaces, one worker, so the same pooled MSA serves every
// product): Arithmetic over NaN/±Inf values, then plus-pair, then
// Arithmetic again. Each result must be bit-identical to a fresh arena's,
// so leftovers in pooled value slots leak in neither direction.
func TestMSACountingWorkspaceReuse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const m, k, n = 24, 20, 32
	mask1 := randFloatCSR(r, m, n, 0.5).Pattern()
	mask2 := randFloatCSR(r, m, n, 0.5).Pattern()
	a := randFloatCSR(r, m, k, 0.3)
	b := randFloatCSR(r, k, n, 0.3)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for p := range a.Val {
		if p%5 == 0 {
			a.Val[p] = special[(p/5)%len(special)]
		}
	}
	eqBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	steps := []struct {
		name string
		mask *matrix.Pattern
		sr   semiring.Semiring[float64]
	}{
		{"arithmetic", mask1, semiring.Arithmetic()},
		{"plus-pair", mask2, semiring.PlusPairF()},
		{"arithmetic-again", mask2, semiring.Arithmetic()},
		{"plus-pair-again", mask1, semiring.PlusPairF()},
	}
	for _, phase := range []Phase{OnePhase, TwoPhase} {
		v := Variant{MSA, phase}
		ws := NewWorkspaces()
		for _, st := range steps {
			opt := Options{Threads: 1}
			want, err := runBlock(v, st.mask, a, b, st.sr, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Workspaces = ws
			got, err := runBlock(v, st.mask, a, b, st.sr, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(got, want, eqBits) {
				t.Fatalf("%s %s: reused-arena result differs from a fresh arena's", v.Name(), st.name)
			}
		}
	}
}
