package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// FuzzDeltaRefresh drives a DeltaProduct over small random M, A and B —
// distinct overlays, or M and A, M and B, or all three one overlay —
// with an arbitrary sequence
// of DeltaM, DeltaA, DeltaB and DeltaAll batches, product compactions,
// direct compactions of one overlay behind the product, and per-overlay
// merge thresholds from auto-compacting at almost every batch to never,
// under a plain and a complemented mask, on the Arithmetic semiring or on
// PlusPairF, whose product patches every frontier row by count changes
// after its first product. It asserts that every refresh renews exactly
// the rows of the full-scan dirtyFrontier reference, and that every
// refreshed prefix is bit-identical to a from-scratch MaskedSpGEMM on the
// overlays' current content. It is the gate of the mask-aware frontier,
// its column index of A and the count patches: a row wrongly left out
// keeps a stale output row, a row wrongly pulled in fails the exactness
// check, and a count change applied twice or missed, or a newly admitted
// entry miscounted, leaves a wrong count.
func FuzzDeltaRefresh(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 1, 2, 3, 1, 2, 3, 4, 5, 6, 3, 1, 0, 0})
	f.Add([]byte{7, 3, 2, 0, 0, 1, 1, 1, 0, 2, 2, 4, 3, 3, 5, 6, 0, 1})
	f.Add([]byte{42, 9, 3, 1, 4, 4, 2, 2, 6, 6, 0, 5, 5, 5, 1, 1, 1, 3, 2, 4})
	// Found by the fuzzer: an A entry deleted after it was indexed, and an
	// A insert that only the insert log covers.
	f.Add([]byte("00107000121000000001112000000200"))
	f.Add([]byte("0000000002000000001012"))
	// Plus-pair, M and A apart, no compaction: M(1,3) and A(1,2) are
	// inserted, a delete of B(2,3) builds the column index of A, A(1,2) is
	// deleted and re-inserted, so row 1 is listed twice under column 2,
	// and the re-insert of B(2,3) must raise C(1,3) by one, not two.
	f.Add([]byte{1, 0, 0, 2, 0, 2, 0, 2, 4,
		0, 0, 1, 3, 4, 1,
		1, 0, 1, 2, 4, 1,
		2, 0, 2, 3, 4, 0,
		1, 0, 1, 2, 4, 0,
		1, 0, 1, 2, 4, 1,
		2, 0, 2, 3, 4, 1})
	// The patches of a changed M or A row, plus-pair, no compaction; the
	// header is seed, variant, three (density, threshold) pairs and the
	// shape, and each step is an operand, an update count and (row, col,
	// value, delete) per update. With M and A apart: M(1,3) is present,
	// A(1,2) and B(2,3) absent, then one DeltaAll batch inserts both, so
	// C(1,3) gains the ΔA·ΔB term, counted once.
	f.Add([]byte{1, 0, 2, 2, 2, 2, 2, 2, 4,
		0, 0, 1, 3, 4, 1,
		1, 0, 1, 2, 4, 0,
		2, 0, 2, 3, 4, 0,
		3, 1, 1, 2, 4, 1, 2, 3, 4, 1})
	// M(1,3) deleted, A(1,2) and B(2,3) inserted, then M(1,3) inserted
	// alone: the newly admitted C(1,3) is counted in full.
	f.Add([]byte{2, 0, 2, 2, 2, 2, 2, 2, 4,
		0, 0, 1, 3, 4, 0,
		1, 0, 1, 2, 4, 1,
		2, 0, 2, 3, 4, 1,
		0, 0, 1, 3, 4, 1})
	// M(1,3), A(1,2) and B(2,3) inserted, then M(1,3) deleted alone: under
	// the complemented mask C(1,3) is newly admitted and counted in full.
	f.Add([]byte{3, 0, 2, 2, 2, 2, 2, 2, 4,
		0, 0, 1, 3, 4, 1,
		1, 0, 1, 2, 4, 1,
		2, 0, 2, 3, 4, 1,
		0, 0, 1, 3, 4, 0})
	// M and A one overlay: (1,3) inserted, (1,2) deleted, B(2,3) inserted,
	// then one batch deletes (1,3) and inserts (1,2). The mask drops C(1,3)
	// or, complemented, newly admits it; either way the ΔA walk over
	// B(2,:) must add no change to it.
	f.Add([]byte{4, 0, 2, 2, 2, 2, 2, 2, 3,
		0, 0, 1, 3, 4, 1,
		0, 0, 1, 2, 4, 0,
		2, 0, 2, 3, 4, 1,
		0, 1, 1, 3, 4, 0, 1, 2, 4, 1})
	// M and B one overlay, A apart: (1,3) is deleted, A(1,4) and (4,3)
	// inserted, then (1,3) inserted alone, which newly admits C(1,3) and
	// changes row 1 of B in one batch; the count must come from the
	// shared overlay's one note table.
	f.Add([]byte{5, 0, 2, 2, 2, 2, 2, 2, 16,
		0, 0, 1, 3, 4, 0,
		1, 0, 1, 4, 4, 1,
		0, 0, 4, 3, 4, 1,
		0, 0, 1, 3, 4, 1})
	// M and A apart, short rows: M(1,3) and M(1,5) deleted and M(1,4)
	// inserted, A(1,2), B(2,3), B(2,5) and B(2,4) inserted, then one
	// batch inserts both deleted mask entries. Two newly admitted columns
	// in one row over short B rows are counted by the marked pass over
	// the B rows of A(1,:), not by a binary search per (column, k), and
	// that pass must leave the kept column 4 alone; complemented, the
	// first batch newly admits them.
	f.Add([]byte{6, 0, 0, 2, 0, 2, 0, 2, 4,
		0, 2, 1, 3, 4, 0, 1, 5, 4, 0, 1, 4, 4, 1,
		1, 0, 1, 2, 4, 1,
		2, 2, 2, 3, 4, 1, 2, 5, 4, 1, 2, 4, 4, 1,
		0, 1, 1, 3, 4, 1, 1, 5, 4, 1})
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
		switch next() % 3 {
		case 1:
			d.SetMergeThreshold(0.05) // auto-compacts at almost every batch
		case 2:
			d.SetMergeThreshold(100) // keeps its logs, and A its column index
		}
		ov[k] = d
	}
	// One byte shapes the product: M and A one overlay at a multiple of
	// 3, B and M one overlay when the byte over 12 is odd, and the
	// semiring Arithmetic or PlusPairF (the count path) by the parity of
	// the byte over 3.
	shape := next()
	if shape%3 == 0 {
		ov[1] = ov[0]
	}
	if shape/12%2 == 1 {
		ov[2] = ov[0]
	}
	sr := semiring.Arithmetic()
	if shape/3%2 == 1 {
		sr = semiring.PlusPairF()
	}
	p := NewDeltaProductComplement(ov[0], ov[1], ov[2], comp, sr)
	opt := Options{Threads: 2, Grain: 2, Complement: comp}
	mult := func(msub *matrix.Pattern, asub, b *matrix.CSR[float64]) (*matrix.CSR[float64], error) {
		return MaskedSpGEMM(v, msub, asub, b, sr, opt)
	}
	eqBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	ops := []DeltaOperand{DeltaM, DeltaA, DeltaB, DeltaAll}
	for step := 0; ; step++ {
		got, _ := refreshExact(t, p, mult)
		cm, ca, cb := ov[0].Current().Pattern(), ov[1].Current(), ov[2].Current()
		want, err := MaskedSpGEMM(v, cm, ca, cb, sr, opt)
		if err != nil {
			t.Fatalf("step %d: rebuild: %v", step, err)
		}
		if !matrix.Equal(got, want, eqBits) {
			t.Fatalf("step %d (%s, %s, complement=%v): refresh not bit-identical to rebuild", step, v.Name(), sr.Name, comp)
		}
		if pos >= len(data) {
			return
		}
		sel := next() % (len(ops) + 2)
		switch sel {
		case len(ops):
			p.Compact()
			continue
		case len(ops) + 1:
			ov[next()%3].Compact() // behind the product's back
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
