package core

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// TestBlockedMatchesSingleVariant: a blocked execution cycling through
// algorithm families per row range is bit-identical to any single-variant
// run, in both phases and both mask modes, whether the Inner blocks
// transpose B themselves or read a precomputed CSC.
func TestBlockedMatchesSingleVariant(t *testing.T) {
	r := rand.New(rand.NewSource(901))
	sr := semiring.Arithmetic()
	n := Index(211) // prime, so block edges don't align with anything
	a := randCSR(r, n, n, 0.05)
	b := randCSR(r, n, n, 0.05)
	mask := randCSR(r, n, n, 0.1).Pattern()
	mkBlocks := func(algs []Algorithm) []ExecBlock {
		var out []ExecBlock
		step := n/Index(len(algs)) + 1
		for i, alg := range algs {
			lo := Index(i) * step
			hi := lo + step
			if hi > n {
				hi = n
			}
			out = append(out, ExecBlock{Lo: lo, Hi: hi, Alg: alg})
		}
		return out
	}
	for _, complement := range []bool{false, true} {
		opt := Options{Complement: complement, Threads: 3, Grain: 7}
		want, err := MaskedSpGEMM(Variant{Alg: MSA, Phase: OnePhase}, mask, a, b, sr, opt)
		if err != nil {
			t.Fatal(err)
		}
		algs := []Algorithm{Inner, Heap, MSA, HeapDot, Hash}
		if !complement {
			algs = append(algs, MCA)
		}
		for i, phase := range []Phase{OnePhase, TwoPhase, OnePhase, TwoPhase} {
			var bcsc *matrix.CSC[float64]
			if i >= 2 {
				bcsc = matrix.ToCSC(b)
			}
			var stats []BlockStat
			got, err := MaskedSpGEMMBlocked(phase, mkBlocks(algs), mask, a, b, bcsc, sr, opt, &stats)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal(got, want, func(x, y float64) bool { return x == y }) {
				t.Fatalf("complement=%v phase=%s precomputed CSC=%v: blocked result disagrees", complement, phase, bcsc != nil)
			}
			if len(stats) != len(algs) {
				t.Fatalf("got %d stats for %d blocks", len(stats), len(algs))
			}
			var rows, outNNZ, maskNNZ int64
			for _, s := range stats {
				rows += s.Rows
				outNNZ += s.OutNNZ
				maskNNZ += s.MaskNNZ
			}
			if rows != int64(n) || outNNZ != int64(got.NNZ()) || maskNNZ != int64(mask.NNZ()) {
				t.Fatalf("stats totals rows=%d out=%d mask=%d, want %d/%d/%d",
					rows, outNNZ, maskNNZ, n, got.NNZ(), mask.NNZ())
			}
		}
	}
}

// TestBlockedValidation: plans that do not tile the row space, that
// assign MCA under a complemented mask, or that bring a CSC of another
// shape than B, are rejected.
func TestBlockedValidation(t *testing.T) {
	r := rand.New(rand.NewSource(902))
	sr := semiring.Arithmetic()
	n := Index(50)
	a := randCSR(r, n, n, 0.1)
	b := randCSR(r, n, n, 0.1)
	mask := randCSR(r, n, n, 0.1).Pattern()
	bad := [][]ExecBlock{
		{},                          // empty
		{{Lo: 0, Hi: 40, Alg: MSA}}, // short
		{{Lo: 10, Hi: n, Alg: MSA}}, // gap at front
		{{Lo: 0, Hi: 30, Alg: MSA}, {Lo: 20, Hi: n, Alg: Hash}}, // overlap
		{{Lo: 0, Hi: n + 1, Alg: MSA}},                          // past the end
	}
	for i, blocks := range bad {
		if _, err := MaskedSpGEMMBlocked(OnePhase, blocks, mask, a, b, nil, sr, Options{}, nil); err == nil {
			t.Fatalf("bad plan %d accepted", i)
		}
	}
	ok := []ExecBlock{{Lo: 0, Hi: 20, Alg: MCA}, {Lo: 20, Hi: n, Alg: MSA}}
	if _, err := MaskedSpGEMMBlocked(OnePhase, ok, mask, a, b, nil, sr, Options{}, nil); err != nil {
		t.Fatalf("valid MCA plan rejected: %v", err)
	}
	if _, err := MaskedSpGEMMBlocked(OnePhase, ok, mask, a, b, nil, sr, Options{Complement: true}, nil); err == nil {
		t.Fatal("MCA block under complement accepted")
	}
	inner := []ExecBlock{{Lo: 0, Hi: n, Alg: Inner}}
	if _, err := MaskedSpGEMMBlocked(OnePhase, inner, mask, a, b, matrix.ToCSC(randCSR(r, n, n+1, 0.1)), sr, Options{}, nil); err == nil {
		t.Fatal("CSC of another shape than B accepted")
	}
}
