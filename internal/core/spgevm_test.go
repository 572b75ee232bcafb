package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

func randVec(r *rand.Rand, n Index, density float64) *matrix.SparseVec[float64] {
	var idx []Index
	var val []float64
	for j := Index(0); j < n; j++ {
		if r.Float64() < density {
			idx = append(idx, j)
			val = append(val, float64(1+r.Intn(5)))
		}
	}
	return &matrix.SparseVec[float64]{N: n, Idx: idx, Val: val}
}

// refSpGEVM is the oracle for v = m .* (uB).
func refSpGEVM(m, u *matrix.SparseVec[float64], b *matrix.CSR[float64], sr semiring.Semiring[float64], comp bool) *matrix.SparseVec[float64] {
	out := Reference(m.VecPattern(), u.AsRowMatrix(), b, sr, comp)
	return matrix.RowToVec(out, 0)
}

// spgevm runs one algorithm's row kernel on the one-row form of v = m .* (uB).
func spgevm(alg Algorithm, m, u *matrix.SparseVec[float64], b *matrix.CSR[float64], opt Options) (*matrix.SparseVec[float64], error) {
	out, err := MaskedSpGEMM(Variant{Alg: alg, Phase: OnePhase}, m.VecPattern(), u.AsRowMatrix(), b, semiring.Arithmetic(), opt)
	if err != nil {
		return nil, err
	}
	return matrix.RowToVec(out, 0), nil
}

func TestMaskedSpGEVMAllAlgorithms(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	sr := semiring.Arithmetic()
	for trial := 0; trial < 15; trial++ {
		k := Index(10 + r.Intn(50))
		n := Index(10 + r.Intn(50))
		u := randVec(r, k, 0.3)
		m := randVec(r, n, 0.3)
		b := randCSR(r, k, n, 0.15)
		want := refSpGEVM(m, u, b, sr, false)
		for _, alg := range []Algorithm{MSA, Hash, MCA, Heap, HeapDot, Inner} {
			got, err := spgevm(alg, m, u, b, Options{Threads: 1})
			if err != nil {
				t.Fatalf("%s: %v", alg, err)
			}
			if !matrix.VecEqual(got, want, eqF) {
				t.Errorf("trial %d %s: SpGEVM mismatch", trial, alg)
			}
		}
		// Complement for the families that support it.
		wantC := refSpGEVM(m, u, b, sr, true)
		for _, alg := range []Algorithm{MSA, Hash, Heap, HeapDot, Inner} {
			got, err := spgevm(alg, m, u, b, Options{Threads: 1, Complement: true})
			if err != nil {
				t.Fatalf("%s complement: %v", alg, err)
			}
			if !matrix.VecEqual(got, wantC, eqF) {
				t.Errorf("trial %d %s: complement SpGEVM mismatch", trial, alg)
			}
		}
	}
}

func TestMaskedSpGEVMDimChecks(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	b := randCSR(r, 5, 6, 0.5)
	u := randVec(r, 4, 0.5) // wrong length
	m := randVec(r, 6, 0.5)
	bcsc := matrix.ToCSC(b)
	if _, _, err := MaskedSpGEVMAuto(m, u, b, bcsc, semiring.Arithmetic(), Options{}); err == nil {
		t.Fatal("expected u length error")
	}
	u2 := randVec(r, 5, 0.5)
	m2 := randVec(r, 7, 0.5) // wrong length
	if _, _, err := MaskedSpGEVMAuto(m2, u2, b, bcsc, semiring.Arithmetic(), Options{}); err == nil {
		t.Fatal("expected m length error")
	}
}

func TestMaskedSpGEVMAutoCorrectBothDirections(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	sr := semiring.Arithmetic()
	n := Index(200)
	b := randCSR(r, n, n, 0.05)
	bcsc := matrix.ToCSC(b)
	// Dense frontier + tiny mask → pull; sparse frontier + big mask → push.
	cases := []struct {
		uDen, mDen float64
		wantDir    Direction
	}{
		{0.9, 0.005, Pull},
		{0.01, 0.5, Push},
	}
	for _, tc := range cases {
		u := randVec(r, n, tc.uDen)
		m := randVec(r, n, tc.mDen)
		want := refSpGEVM(m, u, b, sr, false)
		got, dir, err := MaskedSpGEVMAuto(m, u, b, bcsc, sr, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.VecEqual(got, want, eqF) {
			t.Errorf("auto (%v): result mismatch", dir)
		}
		if dir != tc.wantDir {
			t.Errorf("auto: direction = %v, want %v (uDen=%v mDen=%v)", dir, tc.wantDir, tc.uDen, tc.mDen)
		}
		if dir.String() == "" {
			t.Error("direction must have a name")
		}
	}
	// Complement path must be correct in both directions too.
	u := randVec(r, n, 0.5)
	m := randVec(r, n, 0.3)
	wantC := refSpGEVM(m, u, b, sr, true)
	gotC, _, err := MaskedSpGEVMAuto(m, u, b, bcsc, sr, Options{Threads: 1, Complement: true})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.VecEqual(gotC, wantC, eqF) {
		t.Error("auto complement mismatch")
	}
}
