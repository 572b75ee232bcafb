package core

import (
	"math/rand"
	"slices"
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

// runMask builds a mask whose rows are contiguous runs — the dense-row
// direct-index shape — with random bounds per row (some rows empty).
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

// runRep runs variant v with every row probing the mask through rep: a
// one-block plan through MaskedSpGEMMBlocked, which runs the same driver as
// MaskedSpGEMM (runDriver is a one-segment runDriverBlocked). The block's
// rep is trusted, so the mask must have sorted rows.
func runRep[T any](v Variant, rep MaskRep, m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], opt Options) (*matrix.CSR[T], error) {
	return MaskedSpGEMMBlocked(v.Phase, []ExecBlock{{0, m.NRows, v.Alg, rep}}, m, a, b, nil, sr, opt, nil)
}

// TestMaskRepEquivalence is the representation-equivalence property test:
// for every variant, phase, mask mode and mask shape, the bitmap and dense
// representations must produce output bit-identical to the CSR probe (same
// pattern, same value bits — accumulation order is part of the contract).
func TestMaskRepEquivalence(t *testing.T) {
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
	reps := []MaskRep{RepCSR, RepBitmap, RepDense}
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
		for _, v := range AllVariants() {
			for _, comp := range []bool{false, true} {
				if comp && !v.SupportsComplement() {
					continue
				}
				// Integer-valued correctness oracle: every representation
				// must match the sequential reference exactly.
				wantInt := Reference(mask, aInt, bInt, intSR, comp)
				var baseline *matrix.CSR[float64]
				for _, rep := range reps {
					opt := Options{Threads: 2, Grain: 3, Complement: comp}
					gotInt, err := runRep(v, rep, mask, aInt, bInt, intSR, opt)
					if err != nil {
						t.Fatalf("%s %s comp=%v rep=%s: %v", sh.name, v.Name(), comp, rep, err)
					}
					if !matrix.Equal(gotInt, wantInt, eqF) {
						t.Fatalf("%s %s comp=%v rep=%s: mismatch vs reference", sh.name, v.Name(), comp, rep)
					}
					// Float-valued bit-identity across representations.
					got, err := runRep(v, rep, mask, a, b, sr, opt)
					if err != nil {
						t.Fatalf("%s %s comp=%v rep=%s: %v", sh.name, v.Name(), comp, rep, err)
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("%s %s comp=%v rep=%s: invalid: %v", sh.name, v.Name(), comp, rep, err)
					}
					if baseline == nil {
						baseline = got
						continue
					}
					if !matrix.Equal(got, baseline, eqF) {
						t.Fatalf("%s %s comp=%v rep=%s: not bit-identical to %s", sh.name, v.Name(), comp, rep, reps[0])
					}
				}
				baseline = nil
			}
		}
	}
}

// TestMaskRepPooledEquivalence re-runs a dense-mask product on shared
// Workspaces (pooled bitmap words) and checks results stay bit-identical to
// pool-free runs across repetitions.
func TestMaskRepPooledEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sr := semiring.Arithmetic()
	a := randFloatCSR(r, 48, 40, 0.3)
	b := randFloatCSR(r, 40, 56, 0.3)
	mask := randFloatCSR(r, 48, 56, 0.7).Pattern()
	ws := NewWorkspaces()
	for _, v := range []Variant{{Hash, OnePhase}, {MCA, TwoPhase}, {Heap, OnePhase}} {
		want, err := runRep(v, RepBitmap, mask, a, b, sr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			got, err := runRep(v, RepBitmap, mask, a, b, sr,
				Options{Threads: 3, Workspaces: ws})
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(got, want, eqF) {
				t.Fatalf("%s rep %d: pooled bitmap result differs", v.Name(), rep)
			}
		}
	}
}

// TestMaskRepNamesAndLookup: every representation has its own name, the
// one Explain prints per block.
func TestMaskRepNamesAndLookup(t *testing.T) {
	seen := map[string]bool{}
	for _, rep := range []MaskRep{RepAuto, RepCSR, RepBitmap, RepDense} {
		if name := rep.String(); name == "" || seen[name] {
			t.Fatalf("%d: name %q empty or taken", rep, name)
		}
		seen[rep.String()] = true
	}
	if MaskRep(200).String() == "" {
		t.Fatal("fallback String must be non-empty")
	}
}

func TestSupportedMaskRepDemotions(t *testing.T) {
	if got := SupportedMaskRep(MSA, RepBitmap, false); got != RepCSR {
		t.Fatalf("MSA+bitmap = %s, want csr (dense state array already direct-indexed)", got)
	}
	if got := SupportedMaskRep(MSA, RepDense, false); got != RepDense {
		t.Fatalf("MSA+dense = %s, want dense", got)
	}
	if got := SupportedMaskRep(Inner, RepBitmap, false); got != RepCSR {
		t.Fatalf("Inner normal+bitmap = %s, want csr (mask drives iteration)", got)
	}
	if got := SupportedMaskRep(Inner, RepBitmap, true); got != RepBitmap {
		t.Fatalf("Inner complement+bitmap = %s, want bitmap", got)
	}
	if got := SupportedMaskRep(Hash, RepBitmap, false); got != RepBitmap {
		t.Fatalf("Hash+bitmap = %s, want bitmap", got)
	}
}

func TestAutoMaskRepRules(t *testing.T) {
	// The hand-tuned thresholds: cost ratios of 1.
	AutoMaskRep := func(alg Algorithm, complement bool, rows, maskNNZ, aNNZ, runRows, nonEmptyRows int64) MaskRep {
		return AutoMaskRepRatio(alg, complement, rows, maskNNZ, aNNZ, runRows, nonEmptyRows, 1, 1)
	}
	// Dense flat mask rows with multi-entry A rows: MCA takes the bitmap.
	if got := AutoMaskRep(MCA, false, 100, 100*64, 100*8, 0, 0); got != RepBitmap {
		t.Fatalf("MCA dense = %s, want bitmap", got)
	}
	// Small mask rows: everyone stays on CSR.
	if got := AutoMaskRep(MCA, false, 100, 100*4, 100*8, 0, 0); got != RepCSR {
		t.Fatalf("MCA sparse = %s, want csr", got)
	}
	// Heap never auto-selects the bitmap (measured regression).
	if got := AutoMaskRep(Heap, false, 100, 100*512, 100*8, 0, 0); got != RepCSR {
		t.Fatalf("Heap dense = %s, want csr", got)
	}
	// Hash needs longer rows than MCA.
	if got := AutoMaskRep(Hash, false, 100, 100*64, 100*2, 0, 0); got != RepBitmap {
		t.Fatalf("Hash dense = %s, want bitmap", got)
	}
	// Contiguous-run masks select the dense direct index.
	if got := AutoMaskRep(MSA, false, 100, 100*16, 100*2, 96, 100); got != RepDense {
		t.Fatalf("MSA runs = %s, want dense", got)
	}
	// Empty masks are trivially CSR.
	if got := AutoMaskRep(Hash, false, 100, 0, 100, 0, 0); got != RepCSR {
		t.Fatalf("empty mask = %s, want csr", got)
	}
}

// TestHashBitmapGuardOnUnsortedMask: MSA and Hash legally accept unsorted
// mask rows. On rows of at least 64 entries the fixed-variant path chooses
// the bitmap for Hash, whose sort-based gather would emit rows in another
// order than the CSR path's mask-order gather, so resolveRep's sortedness
// scan must demote it: the result must equal a CSR run bit for bit.
func TestHashBitmapGuardOnUnsortedMask(t *testing.T) {
	const rows, cols = 6, 200
	r := rand.New(rand.NewSource(3))
	// Every row holds 80 distinct columns, reversed so no row is sorted.
	mask := &matrix.Pattern{NRows: rows, NCols: cols, RowPtr: make([]Index, rows+1)}
	for i := 0; i < rows; i++ {
		perm := r.Perm(cols)[:80]
		slices.Sort(perm)
		for k := len(perm) - 1; k >= 0; k-- {
			mask.Col = append(mask.Col, Index(perm[k]))
		}
		mask.RowPtr[i+1] = Index(len(mask.Col))
	}
	if AutoMaskRepRatio(Hash, false, rows, int64(mask.NNZ()), 0, 0, 0, 1, 1) != RepBitmap {
		t.Fatal("test premise broken: the mask does not select the Hash bitmap")
	}
	a := randFloatCSR(r, rows, 30, 0.5)
	b := randFloatCSR(r, 30, cols, 0.3)
	sr := semiring.Arithmetic()
	for _, phase := range []Phase{OnePhase, TwoPhase} {
		v := Variant{Hash, phase}
		want, err := runRep(v, RepCSR, mask, a, b, sr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := MaskedSpGEMM(v, mask, a, b, sr, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got, want, eqF) {
			t.Errorf("%s on an unsorted mask differs from the CSR probe", v.Name())
		}
	}
}

// TestBlockedMixedReps runs a blocked plan whose blocks pin different
// representations and checks bit-identity with a uniform run.
func TestBlockedMixedReps(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	sr := semiring.Arithmetic()
	a := randFloatCSR(r, 60, 40, 0.3)
	b := randFloatCSR(r, 40, 50, 0.3)
	mask := randFloatCSR(r, 60, 50, 0.5).Pattern()
	want, err := MaskedSpGEMM(Variant{Hash, OnePhase}, mask, a, b, sr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := []ExecBlock{
		{Lo: 0, Hi: 20, Alg: Hash, Rep: RepCSR},
		{Lo: 20, Hi: 40, Alg: Hash, Rep: RepBitmap},
		{Lo: 40, Hi: 60, Alg: Hash, Rep: RepDense},
	}
	got, err := MaskedSpGEMMBlocked(OnePhase, blocks, mask, a, b, nil, sr, Options{Threads: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, want, eqF) {
		t.Fatal("mixed-representation blocked run differs from uniform run")
	}
}
