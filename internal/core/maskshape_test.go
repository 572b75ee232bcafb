package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// randFloatCSR is randCSR with irrational-ish values, so any change in
// floating-point accumulation order changes result bits — the signal the
// bit-identity tests below rely on.
func randFloatCSR(r *rand.Rand, m, n Index, density float64) *matrix.CSR[float64] {
	coo := &matrix.COO[float64]{NRows: m, NCols: n}
	target := int(density * float64(m) * float64(n))
	for e := 0; e < target; e++ {
		coo.Row = append(coo.Row, Index(r.Intn(int(m))))
		coo.Col = append(coo.Col, Index(r.Intn(int(n))))
		coo.Val = append(coo.Val, r.Float64()*2-1)
	}
	return matrix.NewCSRFromCOO(coo, func(a, b float64) float64 { return a + b })
}

// runMask builds a mask whose rows are contiguous runs with random bounds
// (some rows empty), the shape whose complement splits each output row.
func runMask(r *rand.Rand, m, n Index) *matrix.Pattern {
	coo := &matrix.COO[float64]{NRows: m, NCols: n}
	for i := Index(0); i < m; i++ {
		if r.Intn(8) == 0 {
			continue // empty row
		}
		lo := Index(r.Intn(int(n)))
		hi := lo + Index(1+r.Intn(int(n-lo)))
		for j := lo; j < hi; j++ {
			coo.Row = append(coo.Row, i)
			coo.Col = append(coo.Col, j)
			coo.Val = append(coo.Val, 1)
		}
	}
	return matrix.NewCSRFromCOO(coo, func(a, b float64) float64 { return 1 }).Pattern()
}

// bandA empties every fifth row of a and confines every third row to the
// lowest quarter of the inner dimension, so Inner's probes of those rows
// stop early on B columns that start above it.
func bandA(a *matrix.CSR[float64]) *matrix.CSR[float64] {
	return matrix.FilterEntries(a, func(i, c Index, _ float64) bool {
		return i%5 != 0 && (i%3 != 0 || c < a.NCols/4)
	})
}

// bandB empties every seventh column of b, puts every third column wholly
// in the upper half of the inner dimension (past the low A rows' largest
// column) and every third-plus-one column in its lowest eighth (below most
// A rows' span), so mask entries land on B columns outside A's span.
func bandB(b *matrix.CSR[float64]) *matrix.CSR[float64] {
	return matrix.FilterEntries(b, func(c, j Index, _ float64) bool {
		switch {
		case j%7 == 3:
			return false
		case j%3 == 0:
			return c >= b.NRows/2
		case j%3 == 1:
			return c < b.NRows/8
		}
		return true
	})
}

// runBlock runs variant v as a one-block plan through
// MaskedSpGEMMBlocked, which runs the same driver as MaskedSpGEMM
// (runDriver is a one-segment runDriverBlocked).
func runBlock[T any](v Variant, m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], opt Options) (*matrix.CSR[T], error) {
	return MaskedSpGEMMBlocked(v.Phase, []ExecBlock{{0, m.NRows, v.Alg}}, m, a, b, nil, sr, opt, nil)
}

// TestMaskShapeEquivalence is the mask-shape property test: for every
// variant, phase, mask mode and mask shape (sparse, dense, contiguous runs,
// tiny, banded), the integer-valued product must match the sequential
// reference exactly, and the float-valued product must be bit-identical
// across variants (same pattern, same value bits — accumulation order is
// part of the kernel contract).
func TestMaskShapeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	sr := semiring.Arithmetic()
	intSR := semiring.Arithmetic()
	type maskGen func(r *rand.Rand, m, n Index) *matrix.Pattern
	sparseMask := func(r *rand.Rand, m, n Index) *matrix.Pattern {
		return randFloatCSR(r, m, n, 0.1).Pattern()
	}
	denseMask := func(r *rand.Rand, m, n Index) *matrix.Pattern {
		return randFloatCSR(r, m, n, 0.6).Pattern()
	}
	shapes := []struct {
		name    string
		m, k, n Index
		mask    maskGen
		band    bool // banded operands (see bandA, bandB)
	}{
		{"sparse", 40, 30, 50, sparseMask, false},
		{"dense", 32, 24, 48, denseMask, false},
		{"runs", 33, 29, 41, runMask, false},
		{"tiny", 3, 2, 2, denseMask, false},
		{"banded", 36, 40, 44, denseMask, true},
		{"banded-runs", 35, 40, 45, runMask, true},
	}
	for _, sh := range shapes {
		a := randFloatCSR(r, sh.m, sh.k, 0.25)
		b := randFloatCSR(r, sh.k, sh.n, 0.25)
		mask := sh.mask(r, sh.m, sh.n)
		aInt := randCSR(r, sh.m, sh.k, 0.25)
		bInt := randCSR(r, sh.k, sh.n, 0.25)
		if sh.band {
			a, aInt = bandA(a), bandA(aInt)
			b, bInt = bandB(b), bandB(bInt)
		}
		for _, comp := range []bool{false, true} {
			wantInt := Reference(mask, aInt, bInt, intSR, comp)
			var baseline *matrix.CSR[float64]
			var baseName string
			for _, v := range AllVariants() {
				if comp && !v.SupportsComplement() {
					continue
				}
				opt := Options{Threads: 2, Grain: 3, Complement: comp}
				gotInt, err := runBlock(v, mask, aInt, bInt, intSR, opt)
				if err != nil {
					t.Fatalf("%s %s comp=%v: %v", sh.name, v.Name(), comp, err)
				}
				if !matrix.Equal(gotInt, wantInt, eqF) {
					t.Fatalf("%s %s comp=%v: mismatch vs reference", sh.name, v.Name(), comp)
				}
				got, err := runBlock(v, mask, a, b, sr, opt)
				if err != nil {
					t.Fatalf("%s %s comp=%v: %v", sh.name, v.Name(), comp, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s %s comp=%v: invalid: %v", sh.name, v.Name(), comp, err)
				}
				if baseline == nil {
					baseline, baseName = got, v.Name()
					continue
				}
				if !matrix.Equal(got, baseline, eqF) {
					t.Fatalf("%s %s comp=%v: not bit-identical to %s", sh.name, v.Name(), comp, baseName)
				}
			}
		}
	}
}

// TestPooledEquivalence re-runs a dense-mask product on shared Workspaces
// (pooled accumulators) and checks results stay bit-identical to pool-free
// runs across repetitions.
func TestPooledEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sr := semiring.Arithmetic()
	a := randFloatCSR(r, 48, 40, 0.3)
	b := randFloatCSR(r, 40, 56, 0.3)
	mask := randFloatCSR(r, 48, 56, 0.7).Pattern()
	ws := NewWorkspaces()
	for _, v := range []Variant{{Hash, OnePhase}, {MCA, TwoPhase}, {Heap, OnePhase}} {
		want, err := runBlock(v, mask, a, b, sr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := runBlock(v, mask, a, b, sr, Options{Threads: 3, Workspaces: ws})
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(got, want, eqF) {
				t.Fatalf("%s rep %d: pooled result differs", v.Name(), rep)
			}
		}
	}
}
