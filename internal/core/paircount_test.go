package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// TestMaskedPairCountMatchesSum: the count equals int64(Sum(C)) of the
// plus-pair product from every variant × schedule (no cost profile, an
// unskewed and a skewed one), on the counting contract's case (1208
// contributions, empty mask and A rows) and on rectangular random
// operands, at one and two threads.
func TestMaskedPairCountMatchesSum(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cmask, ca, cb, _ := countingCase()
	cases := []struct {
		name string
		m    *matrix.Pattern
		a, b *matrix.CSR[float64]
	}{
		{"counting", cmask, ca, cb},
		{"random", randFloatCSR(r, 37, 43, 0.35).Pattern(), randFloatCSR(r, 37, 31, 0.25), randFloatCSR(r, 31, 43, 0.25)},
	}
	for _, tc := range cases {
		costs := ComputeRowCosts(tc.m, tc.a.Pattern(), tc.b.Pattern(), 1)
		for _, sc := range schedCases(costs, true) {
			for _, threads := range []int{1, 2} {
				opt := Options{Threads: threads, Grain: 3, RowCosts: sc.rc}
				got, err := MaskedPairCount(tc.m, tc.a.Pattern(), tc.b.Pattern(), nil, opt)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				for _, v := range AllVariants() {
					c, err := runBlock(v, tc.m, tc.a, tc.b, semiring.PlusPairF(), opt)
					if err != nil {
						t.Fatalf("%s %s: %v", tc.name, v.Name(), err)
					}
					if want := int64(matrix.Sum(c)); got != want {
						t.Fatalf("%s %s/%s/%dt: count %d, Sum(C) %d", tc.name, v.Name(), sc.name, threads, got, want)
					}
				}
			}
		}
	}
	if n, err := MaskedPairCount(cmask, ca.Pattern(), cb.Pattern(), nil, Options{}); err != nil || n != 1208 {
		t.Fatalf("counting case: got %d, %v; want 1208", n, err)
	}
}

// TestMaskedPairCountArena: the count returns its MSA to the arena with
// every state NotAllowed, so a product on the same arena afterwards is
// bit-identical to one on a fresh arena.
func TestMaskedPairCountArena(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := randFloatCSR(r, 40, 50, 0.3).Pattern()
	a, b := randFloatCSR(r, 40, 30, 0.3), randFloatCSR(r, 30, 50, 0.3)
	ws := NewWorkspaces()
	opt := Options{Threads: 1, Workspaces: ws}
	if _, err := MaskedPairCount(m, a.Pattern(), b.Pattern(), nil, opt); err != nil {
		t.Fatal(err)
	}
	acc := wsGetMSA[float64](ws, int(b.NCols))
	state, _ := acc.Arrays()
	for j, st := range state {
		if st != accum.NotAllowed {
			t.Fatalf("state[%d] = %d after the count, want NotAllowed", j, st)
		}
	}
	wsPutMSA(ws, acc)
	v := Variant{MSA, OnePhase}
	want, err := MaskedSpGEMM(v, m, a, b, semiring.Arithmetic(), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MaskedSpGEMM(v, m, a, b, semiring.Arithmetic(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, want, eqF) {
		t.Fatal("product after the count differs from a fresh arena's")
	}
}

// TestMaskedPairCountErrors: a dimension mismatch, a complemented mask,
// hub bitmaps that do not split into the rows and a cancelled context are
// refused without a count.
func TestMaskedPairCountErrors(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m := randFloatCSR(r, 20, 20, 0.3).Pattern()
	a := randFloatCSR(r, 20, 20, 0.3).Pattern()
	if _, err := MaskedPairCount(m, a, randFloatCSR(r, 19, 20, 0.3).Pattern(), nil, Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := MaskedPairCount(m, a, a, nil, Options{Complement: true}); err == nil {
		t.Error("complemented mask accepted")
	}
	if _, err := MaskedPairCount(m, a, a, make([]uint64, 21), Options{}); err == nil {
		t.Error("bitmaps that do not split into the rows accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MaskedPairCount(m, a, a, nil, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: got %v, want context.Canceled", err)
	}
}
