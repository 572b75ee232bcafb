package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// opsEquivCase runs one semiring through every variant × mask mode ×
// schedule (no cost profile, a skewed one) twice — once with the named
// operator type (monomorphized loops) and once with the funcptr fallback
// (Ops stripped) — and requires bit-identical output. This is the contract loops_gen.go is generated under: the
// specialized loops replicate the generic ops loops' operation order
// exactly, so inlining must never change result bits.
func opsEquivCase[T any](t *testing.T, sr semiring.Semiring[T], mask *matrix.Pattern, a, b *matrix.CSR[T], eq func(T, T) bool) {
	t.Helper()
	fp := sr
	fp.Ops = nil
	opsEquivPair(t, sr, fp, mask, a, b, eq)
}

// opsEquivPair is opsEquivCase against a given funcptr semiring fp, which
// must compute what the named sr computes.
func opsEquivPair[T any](t *testing.T, sr, fp semiring.Semiring[T], mask *matrix.Pattern, a, b *matrix.CSR[T], eq func(T, T) bool) {
	t.Helper()
	if sr.Ops == nil {
		t.Fatalf("%s: named semiring carries no operator type", sr.Name)
	}
	if fp.Ops != nil {
		t.Fatalf("%s: funcptr semiring carries an operator type", fp.Name)
	}
	scheds := schedCases(ComputeRowCosts(mask, a.Pattern(), b.Pattern(), 0), false)
	for _, v := range AllVariants() {
		for _, comp := range []bool{false, true} {
			if comp && !v.SupportsComplement() {
				continue
			}
			for _, sc := range scheds {
				opt := Options{Threads: 2, Grain: 3, Complement: comp, RowCosts: sc.rc}
				want, err := runBlock(v, mask, a, b, fp, opt)
				if err != nil {
					t.Fatalf("%s %s comp=%v profile=%s funcptr: %v", sr.Name, v.Name(), comp, sc.name, err)
				}
				got, err := runBlock(v, mask, a, b, sr, opt)
				if err != nil {
					t.Fatalf("%s %s comp=%v profile=%s inlined: %v", sr.Name, v.Name(), comp, sc.name, err)
				}
				if !matrix.Equal(got, want, eq) {
					t.Fatalf("%s %s comp=%v profile=%s: inlined result not bit-identical to funcptr", sr.Name, v.Name(), comp, sc.name)
				}
			}
		}
	}
}

// TestOpsEquivalence is the operator-path equivalence property test: for
// every named semiring, the monomorphized kernels and the funcptr fallback
// must produce bit-identical output across all variants, mask modes and
// schedules (same pattern, same value bits — accumulation order is part
// of the contract).
func TestOpsEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const m, k, n = 37, 31, 43
	mask := randFloatCSR(r, m, n, 0.35).Pattern()
	af := randFloatCSR(r, m, k, 0.25)
	bf := randFloatCSR(r, k, n, 0.25)
	eqBitsF := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

	for _, sr := range []semiring.Semiring[float64]{
		semiring.Arithmetic(), semiring.PlusPairF(), semiring.MinPlus(),
		semiring.PlusSecond(), semiring.PlusFirst(), semiring.MaxTimes(),
	} {
		t.Run(sr.Name, func(t *testing.T) { opsEquivCase(t, sr, mask, af, bf, eqBitsF) })
	}

	// Custom semirings built from func literals (no operator type, and not
	// the named operators' method values) run the generic kernel loops,
	// Inner's probeDot among them; they must match the generated loops on
	// the random operands and on banded ones, whose empty rows and columns
	// and out-of-span B columns drive Inner's probe to its early exit.
	plusTimes := semiring.Semiring[float64]{Name: "custom-plus-times",
		Add: func(x, y float64) float64 { return x + y },
		Mul: func(x, y float64) float64 { return x * y }}
	plusPair := semiring.Semiring[float64]{Name: "custom-plus-pair",
		Add: func(x, y float64) float64 { return x + y },
		Mul: func(x, y float64) float64 { return 1 }}
	for _, c := range []struct{ named, custom semiring.Semiring[float64] }{
		{semiring.Arithmetic(), plusTimes},
		{semiring.PlusPairF(), plusPair},
	} {
		t.Run(c.custom.Name, func(t *testing.T) {
			opsEquivPair(t, c.named, c.custom, mask, af, bf, eqBitsF)
			opsEquivPair(t, c.named, c.custom, mask, bandA(af), bandB(bf), eqBitsF)
		})
	}

	toI64 := func(v float64) int64 { return int64(v) }
	ai := matrix.MapValues(randCSR(r, m, k, 0.25), toI64)
	bi := matrix.MapValues(randCSR(r, k, n, 0.25), toI64)
	eqI := func(x, y int64) bool { return x == y }
	for _, sr := range []semiring.Semiring[int64]{semiring.ArithmeticInt(), semiring.PlusPair()} {
		t.Run(sr.Name, func(t *testing.T) { opsEquivCase(t, sr, mask, ai, bi, eqI) })
	}

	ab := matrix.MapValues(ai, func(v int64) bool { return v != 0 })
	bb := matrix.MapValues(bi, func(v int64) bool { return v != 0 })
	eqB := func(x, y bool) bool { return x == y }
	t.Run("boolean", func(t *testing.T) { opsEquivCase(t, semiring.Boolean(), mask, ab, bb, eqB) })
}
