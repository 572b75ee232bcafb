package apps

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
)

func randFeatures(r *rand.Rand, items, features Index, perItem int) *matrix.CSR[float64] {
	coo := &matrix.COO[float64]{NRows: items, NCols: features}
	for i := Index(0); i < items; i++ {
		for k := 0; k < perItem; k++ {
			coo.Row = append(coo.Row, i)
			coo.Col = append(coo.Col, Index(r.Intn(int(features))))
			coo.Val = append(coo.Val, float64(1+r.Intn(3)))
		}
	}
	return matrix.NewCSRFromCOO(coo, func(a, b float64) float64 { return a + b })
}

func dotRows(f *matrix.CSR[float64], i, j Index) float64 {
	ci, vi := f.Row(i)
	cj, vj := f.Row(j)
	var s float64
	a, b := 0, 0
	for a < len(ci) && b < len(cj) {
		switch {
		case ci[a] == cj[b]:
			s += vi[a] * vj[b]
			a++
			b++
		case ci[a] < cj[b]:
			a++
		default:
			b++
		}
	}
	return s
}

func TestDotSimilarityMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	f := randFeatures(r, 60, 40, 5)
	cand := grgen.ErdosRenyi(60, 8, 5).Pattern()
	eng := NewSession(core.Options{Threads: 2}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase})
	res, err := DotSimilarity(f, cand, eng)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.PatternSubset(res.Scores.Pattern(), cand) {
		t.Fatal("scores must be a subset of the candidate mask")
	}
	for i := Index(0); i < res.Scores.NRows; i++ {
		cols, vals := res.Scores.Row(i)
		for k := range cols {
			want := dotRows(f, i, cols[k])
			if math.Abs(vals[k]-want) > 1e-9 {
				t.Fatalf("pair (%d,%d): %v want %v", i, cols[k], vals[k], want)
			}
		}
	}
	if res.Pairs != res.Scores.NNZ() {
		t.Fatal("pair count")
	}
}

func TestDotSimilarityDimCheck(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	f := randFeatures(r, 10, 5, 2)
	bad := grgen.ErdosRenyi(9, 2, 1).Pattern()
	eng := NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase})
	if _, err := DotSimilarity(f, bad, eng); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestCosineSimilarityNormalized(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	f := randFeatures(r, 50, 30, 4)
	cand := grgen.ErdosRenyi(50, 6, 9).Pattern()
	eng := NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.Hash, Phase: core.OnePhase})
	res, err := CosineSimilarity(f, cand, eng)
	if err != nil {
		t.Fatal(err)
	}
	for i := Index(0); i < res.Scores.NRows; i++ {
		cols, vals := res.Scores.Row(i)
		for k := range cols {
			if vals[k] < -1e-9 || vals[k] > 1+1e-9 {
				t.Fatalf("cosine out of [0,1]: %v", vals[k])
			}
			// Self-pairs (if candidates include the diagonal) must be 1.
			if cols[k] == i && math.Abs(vals[k]-1) > 1e-9 {
				t.Fatalf("self-similarity = %v, want 1", vals[k])
			}
		}
	}
}

func TestTopKCandidates(t *testing.T) {
	// Three items: 0 and 1 share two features, 2 shares nothing.
	coo := &matrix.COO[float64]{NRows: 3, NCols: 4}
	put := func(i, j Index) {
		coo.Row = append(coo.Row, i)
		coo.Col = append(coo.Col, j)
		coo.Val = append(coo.Val, 1)
	}
	put(0, 0)
	put(0, 1)
	put(1, 0)
	put(1, 1)
	put(2, 3)
	f := matrix.NewCSRFromCOO(coo, nil)
	cand := TopKCandidates(f, 2, 0)
	if cand.NNZ() != 2 { // (0,1) and (1,0)
		t.Fatalf("candidates nnz = %d, want 2", cand.NNZ())
	}
	row0 := cand.Row(0)
	if len(row0) != 1 || row0[0] != 1 {
		t.Fatalf("row 0 candidates = %v", row0)
	}
	// minShared=3 excludes the pair.
	if TopKCandidates(f, 3, 0).NNZ() != 0 {
		t.Fatal("minShared filter")
	}
	// Per-feature cap: cap of 1 means no pairs form.
	if TopKCandidates(f, 1, 1).NNZ() != 0 {
		t.Fatal("maxPerFeature cap")
	}
}

func TestSimilarityAllEnginesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(85))
	f := randFeatures(r, 40, 25, 4)
	cand := TopKCandidates(f, 1, 8)
	if cand.NNZ() == 0 {
		t.Skip("no candidates generated")
	}
	ref, err := DotSimilarity(f, cand, NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase}))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Hash-1P", "MCA-2P", "Heap-1P", "Inner-1P"} {
		v, _ := core.VariantByName(name)
		got, err := DotSimilarity(f, cand, NewSession(core.Options{}).EngineVariant(v))
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got.Scores, ref.Scores, func(a, b float64) bool { return a == b }) {
			t.Fatalf("%s disagrees", name)
		}
	}
}
