package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

type Index = matrix.Index

// wideRow describes one row of a wide complemented product: out is the
// exact set of output columns, hit the masked columns B also reaches (so
// the kernel must discard them), and run makes the mask row one contiguous
// run [run[0], run[1]), whose complement splits the row's output in two.
type wideRow struct {
	out, hit []Index
	run      [2]Index
}

// wideRows are the row shapes of TestWideComplementMasks for ncols n:
// empty rows, single outputs at both ends, rows of 2, 9, 40 and 300
// outputs spread over the whole width (both ends included), clustered in
// one 64-column word, straddling the 4,096-column summary boundary, and
// spread over 30 summary words.
func wideRows(r *rand.Rand, n Index) []wideRow {
	pick := func(k int, lo, hi Index) []Index {
		seen := map[Index]bool{}
		var s []Index
		for len(s) < k {
			j := lo + Index(r.Intn(int(hi-lo)))
			if !seen[j] {
				seen[j] = true
				s = append(s, j)
			}
		}
		return s
	}
	spread := func(k int) []Index { return append(pick(k-2, 1, n-1), 0, n-1) }
	return []wideRow{
		{},
		{hit: []Index{5, n / 2}},
		{out: []Index{0}, hit: []Index{1, n - 1}},
		{out: []Index{n - 1}, hit: []Index{0}},
		{out: []Index{n / 3}, hit: pick(3, n/3+1, n/3+50), run: [2]Index{n/3 + 1, n/3 + 50}},
		{out: []Index{0, n - 1}, hit: pick(3, 1, n-1)},
		{out: spread(9), hit: pick(4, 1, n-1)},
		{out: pick(9, 640, 704)},
		{out: pick(9, 4090, 4102), hit: []Index{4102}},
		{out: spread(40), hit: pick(6, 1, n-1)},
		{out: append(pick(20, 0, n/2-100), pick(20, n/2+100, n)...), hit: pick(5, n/2-100, n/2+100), run: [2]Index{n/2 - 100, n/2 + 100}},
		{out: pick(40, 1000, min(n, 1000+30*4096))},
		{out: spread(300), hit: pick(20, 1, n-1)},
	}
}

// wideOperands builds mask, A and B for the rows: A row i reaches three B
// rows, which together hold out ∪ hit, about half the columns in two of
// them so outputs accumulate; the mask row holds hit and the run, or else
// hit plus three columns outside out.
func wideOperands(r *rand.Rand, n Index, rows []wideRow) (*matrix.Pattern, *matrix.CSR[float64], *matrix.CSR[float64]) {
	nr := Index(len(rows))
	mc := &matrix.COO[float64]{NRows: nr, NCols: n}
	ac := &matrix.COO[float64]{NRows: nr, NCols: 3 * nr}
	bc := &matrix.COO[float64]{NRows: 3 * nr, NCols: n}
	add := func(c *matrix.COO[float64], i, j Index) {
		c.Row, c.Col, c.Val = append(c.Row, i), append(c.Col, j), append(c.Val, r.Float64()*2-1)
	}
	for i, row := range rows {
		i := Index(i)
		row.hit = slices.DeleteFunc(row.hit, func(j Index) bool { return slices.Contains(row.out, j) })
		mask := map[Index]bool{}
		for _, j := range row.hit {
			mask[j] = true
		}
		for j := row.run[0]; j < row.run[1]; j++ {
			mask[j] = true
		}
		if row.run[1] == 0 {
			for len(mask) < len(row.hit)+3 {
				if j := Index(r.Intn(int(n))); !slices.Contains(row.out, j) {
					mask[j] = true
				}
			}
		}
		for j := range mask {
			add(mc, i, j)
		}
		reach := append(slices.Clone(row.out), row.hit...)
		if len(reach) == 0 {
			continue // an empty A row
		}
		for t := Index(0); t < 3; t++ {
			add(ac, i, 3*i+t)
		}
		for p, j := range reach {
			add(bc, 3*i+Index(p%3), j)
			if r.Intn(2) == 0 {
				add(bc, 3*i+Index((p+1)%3), j)
			}
		}
	}
	sum := func(x, y float64) float64 { return x + y }
	return matrix.NewCSRFromCOO(mc, sum).Pattern(), matrix.NewCSRFromCOO(ac, sum), matrix.NewCSRFromCOO(bc, sum)
}

// TestWideComplementMasks: complemented MSA rows over 5,000 and 70,001
// columns, whose outputs reach past the first summary word of the MSA's
// two-level bitmap and, for short rows spread over the whole width, take
// the comparison-sort fallback. Every phase and semiring must be
// bit-identical to SS:SAXPY, which gathers by sorting.
func TestWideComplementMasks(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, n := range []Index{5000, 70001} {
		rows := wideRows(r, n)
		m, a, b := wideOperands(r, n, rows)
		for _, sr := range []semiring.Semiring[float64]{semiring.Arithmetic(), semiring.PlusPairF()} {
			opt := core.Options{Threads: 2, Grain: 1, Complement: true}
			want := baseline.SSSaxpy(m, a, b, sr, opt)
			for i, row := range rows {
				got := want.Col[want.RowPtr[i]:want.RowPtr[i+1]]
				if !slices.Equal(got, slices.Sorted(slices.Values(row.out))) {
					t.Fatalf("n=%d row %d: SS:SAXPY holds %d outputs, want %d; the operands are malformed", n, i, len(got), len(row.out))
				}
			}
			for _, name := range []string{"MSA-1P", "MSA-2P"} {
				v, err := core.VariantByName(name)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("n=%d %s %s", n, sr.Name, name)
				got, err := core.MaskedSpGEMMBlocked(v.Phase, []core.ExecBlock{{Lo: 0, Hi: m.NRows, Alg: v.Alg}}, m, a, b, nil, sr, opt, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !matrix.Equal(got, want, bitsEq) {
					t.Fatalf("%s: not bit-identical to SS:SAXPY", label)
				}
			}
		}
	}
}
