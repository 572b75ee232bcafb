package grb

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

func randTriplets(r *rand.Rand, m, n Index, nnz int) ([]Index, []Index, []float64) {
	rows := make([]Index, nnz)
	cols := make([]Index, nnz)
	vals := make([]float64, nnz)
	for k := 0; k < nnz; k++ {
		rows[k] = Index(r.Intn(int(m)))
		cols[k] = Index(r.Intn(int(n)))
		vals[k] = float64(1 + r.Intn(5))
	}
	return rows, cols, vals
}

func TestNewMatrixValidation(t *testing.T) {
	if _, err := NewMatrix(2, 2, []Index{0}, []Index{0, 1}, []float64{1, 2}); err == nil {
		t.Fatal("ragged triplets must fail")
	}
	if _, err := NewMatrix(2, 2, []Index{5}, []Index{0}, []float64{1}); err == nil {
		t.Fatal("out of range row must fail")
	}
	m, err := NewMatrix(2, 3, []Index{0, 0, 1}, []Index{1, 1, 2}, []float64{1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.NRows() != 2 || m.NCols() != 3 || m.NVals() != 2 {
		t.Fatalf("shape %dx%d nvals %d", m.NRows(), m.NCols(), m.NVals())
	}
	if v, ok := m.ExtractElement(0, 1); !ok || v != 3 {
		t.Fatalf("duplicate sum: %v %v", v, ok)
	}
	if _, ok := m.ExtractElement(1, 0); ok {
		t.Fatal("absent element")
	}
	if _, ok := m.ExtractElement(9, 0); ok {
		t.Fatal("out of range row")
	}
	d := m.Dup()
	if d.NVals() != m.NVals() {
		t.Fatal("dup")
	}
}

func TestVectorValidation(t *testing.T) {
	if _, err := NewVector(3, []Index{0}, []float64{1, 2}); err == nil {
		t.Fatal("ragged")
	}
	if _, err := NewVector(3, []Index{5}, []float64{1}); err == nil {
		t.Fatal("out of range")
	}
	v, err := NewVector(5, []Index{4, 1, 4}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 5 || v.NVals() != 2 {
		t.Fatalf("size %d nvals %d", v.Size(), v.NVals())
	}
	idx, vals := v.Extract()
	if idx[0] != 1 || vals[1] != 4 {
		t.Fatalf("extract %v %v", idx, vals)
	}
}

func TestMxMMaskedMatchesCore(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		n := Index(20 + r.Intn(40))
		ar, ac, av := randTriplets(r, n, n, 4*int(n))
		br, bc, bv := randTriplets(r, n, n, 4*int(n))
		mr, mc, mv := randTriplets(r, n, n, 6*int(n))
		a, _ := NewMatrix(n, n, ar, ac, av)
		b, _ := NewMatrix(n, n, br, bc, bv)
		mask, _ := NewMatrix(n, n, mr, mc, mv)
		sr := semiring.Arithmetic()
		want := core.Reference(mask.CSR().Pattern(), a.CSR(), b.CSR(), sr, false)
		for _, method := range []core.Algorithm{core.MSA, core.Hash, core.MCA, core.Heap, core.Inner} {
			got, err := MxM(mask, a, b, sr, &Desc{Method: method})
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(got.CSR(), want, func(x, y float64) bool { return x == y }) {
				t.Fatalf("trial %d method %s mismatch", trial, method)
			}
		}
		// Complement through the descriptor.
		wantC := core.Reference(mask.CSR().Pattern(), a.CSR(), b.CSR(), sr, true)
		gotC, err := MxM(mask, a, b, sr, &Desc{CompMask: true})
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(gotC.CSR(), wantC, func(x, y float64) bool { return x == y }) {
			t.Fatalf("trial %d complement mismatch", trial)
		}
		// Unmasked product.
		empty := matrix.NewEmptyCSR[float64](n, n).Pattern()
		wantFull := core.Reference(empty, a.CSR(), b.CSR(), sr, true)
		gotFull, err := MxM(nil, a, b, sr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(gotFull.CSR(), wantFull, func(x, y float64) bool { return x == y }) {
			t.Fatalf("trial %d unmasked mismatch", trial)
		}
	}
}

func TestMxMNilMaskComplementRejected(t *testing.T) {
	a, _ := NewMatrix(2, 2, []Index{0}, []Index{1}, []float64{1})
	if _, err := MxM(nil, a, a, semiring.Arithmetic(), &Desc{CompMask: true}); err == nil {
		t.Fatal("expected rejection")
	}
}

func TestVxMAndMxV(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := Index(40)
	ar, ac, av := randTriplets(r, n, n, 5*int(n))
	a, _ := NewMatrix(n, n, ar, ac, av)
	u, _ := NewVector(n, []Index{0, 3, 17}, []float64{1, 2, 3})
	mIdx := make([]Index, 0)
	mVal := make([]float64, 0)
	for j := Index(0); j < n; j += 2 {
		mIdx = append(mIdx, j)
		mVal = append(mVal, 1)
	}
	mask, _ := NewVector(n, mIdx, mVal)
	sr := semiring.Arithmetic()
	// Oracle: dense u·A restricted to mask.
	dense := make([]float64, n)
	hit := make([]bool, n)
	uIdx, uVal := u.Extract()
	for t2, k := range uIdx {
		cols, vals := a.CSR().Row(k)
		for kk, j := range cols {
			dense[j] += uVal[t2] * vals[kk]
			hit[j] = true
		}
	}
	got, err := VxM(mask, u, a, sr, nil)
	if err != nil {
		t.Fatal(err)
	}
	gIdx, gVal := got.Extract()
	seen := map[Index]float64{}
	for k, j := range gIdx {
		seen[j] = gVal[k]
	}
	for _, j := range mIdx {
		if hit[j] {
			if seen[j] != dense[j] {
				t.Fatalf("VxM at %d: %v want %v", j, seen[j], dense[j])
			}
		} else if _, ok := seen[j]; ok {
			t.Fatalf("VxM phantom entry at %d", j)
		}
	}
	// MxV: A·u == uᵀ·Aᵀ; compare against VxM on the transpose.
	gotMxV, err := MxV(mask, a, u, sr, nil)
	if err != nil {
		t.Fatal(err)
	}
	at := Transpose(a)
	wantMxV, err := VxM(mask, u, at, sr, nil)
	if err != nil {
		t.Fatal(err)
	}
	wIdx, wVal := wantMxV.Extract()
	gIdx2, gVal2 := gotMxV.Extract()
	if len(wIdx) != len(gIdx2) {
		t.Fatalf("MxV nvals %d want %d", len(gIdx2), len(wIdx))
	}
	for k := range wIdx {
		if wIdx[k] != gIdx2[k] || wVal[k] != gVal2[k] {
			t.Fatalf("MxV entry %d mismatch", k)
		}
	}
	// Unmasked VxM.
	full, err := VxM(nil, u, a, sr, nil)
	if err != nil {
		t.Fatal(err)
	}
	fIdx, fVal := full.Extract()
	for k, j := range fIdx {
		if fVal[k] != dense[j] {
			t.Fatalf("unmasked VxM at %d", j)
		}
	}
}

func TestEWiseApplySelectReduce(t *testing.T) {
	a, _ := NewMatrix(2, 2, []Index{0, 1}, []Index{0, 1}, []float64{2, 3})
	b, _ := NewMatrix(2, 2, []Index{0, 1}, []Index{0, 0}, []float64{10, 20})
	s := EWiseAdd(a, b, func(x, y float64) float64 { return x + y })
	if s.NVals() != 3 {
		t.Fatal("union size")
	}
	if v, _ := s.ExtractElement(0, 0); v != 12 {
		t.Fatal("union combine")
	}
	m := EWiseMult(a, b, func(x, y float64) float64 { return x * y })
	if m.NVals() != 1 {
		t.Fatal("intersection size")
	}
	if v, _ := m.ExtractElement(0, 0); v != 20 {
		t.Fatal("intersection combine")
	}
	ap := Apply(a, func(v float64) float64 { return -v })
	if v, _ := ap.ExtractElement(1, 1); v != -3 {
		t.Fatal("apply")
	}
	sel := Select(a, func(i, j Index, v float64) bool { return v > 2 })
	if sel.NVals() != 1 {
		t.Fatal("select")
	}
	if got := Reduce(a, semiring.Arithmetic()); got != 5 {
		t.Fatalf("reduce = %v", got)
	}
	rows := ReduceRows(a, semiring.Arithmetic())
	rIdx, rVal := rows.Extract()
	if len(rIdx) != 2 || rVal[0] != 2 || rVal[1] != 3 {
		t.Fatalf("reduce rows: %v %v", rIdx, rVal)
	}
}

func TestGrBTriangleCountMatchesApps(t *testing.T) {
	g := grgen.RMAT(8, 8, 3)
	// The grb version counts on the unrelabeled graph; the exact counter is
	// permutation-invariant, so compare against it directly.
	want := apps.TriangleCountExact(g)
	for _, method := range []core.Algorithm{core.MSA, core.Hash, core.MCA} {
		got, err := TriangleCount(WrapCSR(g), &Desc{Method: method})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("method %s: %d triangles, want %d", method, got, want)
		}
	}
}

func TestGrBBFSMatchesExact(t *testing.T) {
	g := grgen.ErdosRenyiSym(120, 4, 5)
	want := apps.BFSExact(g, 7)
	got, err := BFSLevels(WrapCSR(g), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	if _, err := BFSLevels(WrapCSR(g), -1, nil); err == nil {
		t.Fatal("bad source")
	}
}

func TestGrBKTrussMatchesApps(t *testing.T) {
	g := grgen.RMAT(7, 8, 9)
	v, _ := core.VariantByName("MSA-1P")
	wantTruss, wantRes, err := apps.KTruss(g, 5, apps.NewSession(core.Options{}).EngineVariant(v))
	if err != nil {
		t.Fatal(err)
	}
	gotEdges, gotRounds, err := KTrussEdges(WrapCSR(g), 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotEdges != wantTruss.NNZ() {
		t.Fatalf("edges %d want %d", gotEdges, wantTruss.NNZ())
	}
	if gotRounds != wantRes.Iterations {
		t.Fatalf("rounds %d want %d", gotRounds, wantRes.Iterations)
	}
	if _, _, err := KTrussEdges(WrapCSR(g), 2, nil); err == nil {
		t.Fatal("k<3 must fail")
	}
}

func TestDefaultDesc(t *testing.T) {
	d, err := DefaultDesc("Hash-2P", 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != core.Hash || !d.TwoPhase || d.Threads != 3 {
		t.Fatalf("desc = %+v", d)
	}
	if _, err := DefaultDesc("nope", 1); err == nil {
		t.Fatal("bad name")
	}
	if d.variant().Name() != "Hash-2P" {
		t.Fatal("variant name")
	}
}

func TestFlipMulPreservesSemantics(t *testing.T) {
	sr := semiring.PlusSecond()
	f := flipMul(sr)
	if f.Mul(3, 7) != sr.Mul(7, 3) {
		t.Fatal("flip broken")
	}
	if f.Add(1, 2) != 3 || f.Name == "" {
		t.Fatal("metadata broken")
	}
}
