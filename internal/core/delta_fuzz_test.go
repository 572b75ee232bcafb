package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// FuzzDeltaRefresh drives a DeltaProduct over small random M, A and B
// with an arbitrary sequence of DeltaM, DeltaA, DeltaB and DeltaAll
// batches and compactions, under a plain and a complemented mask, and
// asserts that every refreshed prefix is bit-identical to a from-scratch
// MaskedSpGEMM on the overlays' current content. It is the gate of the
// mask-aware frontier: a row the frontier wrongly leaves out keeps a stale
// output row and fails the comparison.
func FuzzDeltaRefresh(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 1, 2, 3, 1, 2, 3, 4, 5, 6, 3, 1, 0, 0})
	f.Add([]byte{7, 3, 2, 0, 0, 1, 1, 1, 0, 2, 2, 4, 3, 3, 5, 6, 0, 1})
	f.Add([]byte{42, 9, 3, 1, 4, 4, 2, 2, 6, 6, 0, 5, 5, 5, 1, 1, 1, 3, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, comp := range []bool{false, true} {
			fuzzDeltaRefresh(t, data, comp)
		}
	})
}

func fuzzDeltaRefresh(t *testing.T, data []byte, comp bool) {
	const n = 7 // square, so DeltaAll batches fit every overlay
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return int(b)
	}
	rng := rand.New(rand.NewSource(int64(next())))
	var variants []Variant
	for _, v := range AllVariants() {
		if !comp || v.SupportsComplement() {
			variants = append(variants, v)
		}
	}
	v := variants[next()%len(variants)]
	var ov [3]*matrix.DeltaCSR[float64]
	for k := range ov {
		d, err := matrix.NewDeltaCSR(randFloatCSR(rng, n, n, 0.1*float64(1+next()%4)))
		if err != nil {
			t.Fatal(err)
		}
		ov[k] = d
	}
	p := NewDeltaProductSeeded(ov[0], ov[1], ov[2], comp, nil)
	sr := semiring.Arithmetic()
	opt := Options{Threads: 2, Grain: 2, Complement: comp}
	mult := func(msub *matrix.Pattern, asub, b *matrix.CSR[float64]) (*matrix.CSR[float64], error) {
		return MaskedSpGEMM(v, msub, asub, b, sr, opt)
	}
	eqBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	ops := []DeltaOperand{DeltaM, DeltaA, DeltaB, DeltaAll}
	for step := 0; ; step++ {
		got, _, err := p.Refresh(mult)
		if err != nil {
			t.Fatalf("step %d: refresh: %v", step, err)
		}
		cm, ca, cb := ov[0].Current().Pattern(), ov[1].Current(), ov[2].Current()
		want, err := MaskedSpGEMM(v, cm, ca, cb, sr, opt)
		if err != nil {
			t.Fatalf("step %d: rebuild: %v", step, err)
		}
		if !matrix.Equal(got, want, eqBits) {
			t.Fatalf("step %d (%s, complement=%v): refresh not bit-identical to rebuild", step, v.Name(), comp)
		}
		if pos >= len(data) {
			return
		}
		sel := next() % (len(ops) + 1)
		if sel == len(ops) {
			p.Compact()
			continue
		}
		batch := make([]matrix.Update[float64], 1+next()%3)
		for k := range batch {
			batch[k] = matrix.Update[float64]{
				Row: Index(next() % n), Col: Index(next() % n),
				Val:    float64(next()%7) - 3,
				Delete: next()%3 == 0,
			}
		}
		if err := p.Apply(ops[sel], batch); err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}
	}
}
