package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/accum"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// pairCase is a count and the product whose Sum it must equal: the count
// runs over the listed parts tm and tb of M and B, the bits and the walk
// ends, on A's pattern ta, and the variants multiply m, a and b.
type pairCase struct {
	name   string
	m      *matrix.Pattern
	a, b   *matrix.CSR[float64]
	tm, tb *matrix.Pattern
	ta     *matrix.Pattern
	bits   []uint64
	walk   []Index
}

// hubPairCase returns a count of s .* (a·s) for a random n×n s and a,
// with the columns c of s where hub(c) holds moved into bitmaps, column c
// at bit spread·c, and each row of a listing first the k whose listed
// s(k,:) is not empty, which the walk ends mark.
func hubPairCase(r *rand.Rand, name string, n Index, hub func(Index) bool, spread int) pairCase {
	s, a := randFloatCSR(r, n, n, 0.3), randFloatCSR(r, n, n, 0.25)
	words := (spread*(int(n)-1))/64 + 1
	bits := make([]uint64, int(n)*words)
	tail := &matrix.Pattern{NRows: n, NCols: n, RowPtr: make([]Index, n+1)}
	for v := Index(0); v < n; v++ {
		for _, c := range s.Col[s.RowPtr[v]:s.RowPtr[v+1]] {
			if b := spread * int(c); hub(c) {
				bits[int(v)*words+b/64] |= 1 << (b % 64)
			} else {
				tail.Col = append(tail.Col, c)
			}
		}
		tail.RowPtr[v+1] = Index(len(tail.Col))
	}
	ta := &matrix.Pattern{NRows: n, NCols: n, RowPtr: a.RowPtr, Col: slices.Clone(a.Col)}
	walk := make([]Index, n)
	for i := Index(0); i < n; i++ {
		row := ta.Col[ta.RowPtr[i]:ta.RowPtr[i+1]]
		slices.SortStableFunc(row, func(k, l Index) int {
			return int(b2i(tail.RowPtr[k+1] == tail.RowPtr[k]) - b2i(tail.RowPtr[l+1] == tail.RowPtr[l]))
		})
		walk[i] = ta.RowPtr[i]
		for _, k := range row {
			walk[i] += b2i(tail.RowPtr[k+1] > tail.RowPtr[k])
		}
	}
	return pairCase{name, s.Pattern(), a, s, tail, tail, ta, bits, walk}
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) Index {
	if b {
		return 1
	}
	return 0
}

// TestMaskedPairCountMatchesSum: the count equals int64(Sum(C)) of the
// plus-pair product from every variant × schedule (no cost profile, an
// unskewed and a skewed one), on the counting contract's case (1208
// contributions, empty mask and A rows), on rectangular random operands
// and on square ones whose M and B keep some columns as bitmaps of one
// and of eight words and whose walk ends skip the empty B rows, at one
// and two threads, on the AVX-512 AND where the CPU has it and on the
// portable one.
func TestMaskedPairCountMatchesSum(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cmask, ca, cb, _ := countingCase()
	plain := func(name string, m *matrix.Pattern, a, b *matrix.CSR[float64]) pairCase {
		return pairCase{name, m, a, b, m, b.Pattern(), a.Pattern(), nil, a.RowPtr[1:]}
	}
	cases := []pairCase{
		plain("counting", cmask, ca, cb),
		plain("random", randFloatCSR(r, 37, 43, 0.35).Pattern(), randFloatCSR(r, 37, 31, 0.25), randFloatCSR(r, 31, 43, 0.25)),
		hubPairCase(r, "hubs-1-word", 60, func(c Index) bool { return c < 40 }, 1),
		hubPairCase(r, "hubs-8-words", 70, func(c Index) bool { return c%2 == 0 }, 7),
	}
	for _, tc := range cases {
		costs := ComputeRowCosts(tc.m, tc.a.Pattern(), tc.b.Pattern(), 1)
		for _, sc := range schedCases(costs, true) {
			for _, threads := range []int{1, 2} {
				opt := Options{Threads: threads, Grain: 3, RowCosts: sc.rc}
				count := func() int64 {
					n, err := MaskedPairCount(tc.tm, tc.ta, tc.tb, tc.bits, tc.walk, opt)
					if err != nil {
						t.Fatalf("%s: %v", tc.name, err)
					}
					return n
				}
				got := count()
				var portable int64
				withPortablePairAnd(func() { portable = count() })
				for _, v := range AllVariants() {
					c, err := runBlock(v, tc.m, tc.a, tc.b, semiring.PlusPairF(), opt)
					if err != nil {
						t.Fatalf("%s %s: %v", tc.name, v.Name(), err)
					}
					if want := int64(matrix.Sum(c)); got != want || portable != want {
						t.Fatalf("%s %s/%s/%dt: count %d (portable AND %d), Sum(C) %d", tc.name, v.Name(), sc.name, threads, got, portable, want)
					}
				}
			}
		}
	}
	if n, err := MaskedPairCount(cmask, ca.Pattern(), cb.Pattern(), nil, ca.RowPtr[1:], Options{}); err != nil || n != 1208 {
		t.Fatalf("counting case: got %d, %v; want 1208", n, err)
	}
}

// TestMaskedPairCountOutsideBits: an A column that names no bitmap row
// panics on both AND loops, as the Go loop's bounds check does, and
// the AVX-512 loop, where the CPU has it, reports the row outside bits
// (k = n, a negative k, i = n) instead of reading it. A walk end past its
// row's end or before its start panics too, instead of walking a
// neighbouring row's columns.
func TestMaskedPairCountOutsideBits(t *testing.T) {
	const n = 5
	full := &matrix.Pattern{NRows: n, NCols: n, RowPtr: make([]Index, n+1)}
	for v := range Index(n) {
		full.Col = append(full.Col, 0, 1, 2, 3, 4)
		full.RowPtr[v+1] = Index(len(full.Col))
	}
	diag := &matrix.Pattern{NRows: n, NCols: n, RowPtr: []Index{0, 1, 2, 3, 4, 5}, Col: []Index{0, 1, 2, 3, 4}}
	for _, walk := range [][]Index{{2, 2, 3, 4, 5}, {1, 0, 3, 4, 5}, {1, 2, 3, 4, 6}} {
		panicked := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			MaskedPairCount(full, diag, full, nil, walk, Options{Threads: 1})
			return false
		}()
		if !panicked {
			t.Errorf("walk ends %v outside rows %v counted", walk, diag.RowPtr)
		}
	}
	for _, words := range []int{1, 3, 8} {
		bits := make([]uint64, n*words)
		for j := range bits {
			bits[j] = ^uint64(0)
		}
		empty := &matrix.Pattern{NRows: n, NCols: n, RowPtr: make([]Index, n+1)}
		a := &matrix.Pattern{NRows: n, NCols: n, RowPtr: []Index{0, 2, 2, 2, 2, 2}, Col: []Index{1, n}}
		count := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			MaskedPairCount(empty, a, empty, bits, a.RowPtr[1:], Options{Threads: 1})
			return false
		}
		if !count() {
			t.Errorf("%d words: column %d counted", words, n)
		}
		withPortablePairAnd(func() {
			if !count() {
				t.Errorf("%d words, portable AND: column %d counted", words, n)
			}
		})
		if !pairAVX512 {
			continue
		}
		if sum, ok := pairAndAVX512(bits, words, 0, []Index{n - 1}); !ok || sum != int64(64*words) {
			t.Errorf("%d words: last row gives %d, %v; want %d", words, sum, ok, 64*words)
		}
		for _, tc := range []struct {
			i int
			k Index
		}{{0, n}, {0, -1}, {n, 0}} {
			if _, ok := pairAndAVX512(bits, words, tc.i, []Index{tc.k}); ok {
				t.Errorf("%d words: row i = %d, k = %d outside bits accepted", words, tc.i, tc.k)
			}
		}
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
	if _, err := MaskedPairCount(m, a.Pattern(), b.Pattern(), nil, a.RowPtr[1:], opt); err != nil {
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
// hub bitmaps that do not split into the rows or hold more than eight
// words a row, walk ends that do not match A's rows or are missing and a
// cancelled
// context are refused without a count.
func TestMaskedPairCountErrors(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m := randFloatCSR(r, 20, 20, 0.3).Pattern()
	a := randFloatCSR(r, 20, 20, 0.3).Pattern()
	if _, err := MaskedPairCount(m, a, randFloatCSR(r, 19, 20, 0.3).Pattern(), nil, a.RowPtr[1:], Options{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := MaskedPairCount(m, a, a, nil, a.RowPtr[1:], Options{Complement: true}); err == nil {
		t.Error("complemented mask accepted")
	}
	if _, err := MaskedPairCount(m, a, a, make([]uint64, 21), a.RowPtr[1:], Options{}); err == nil {
		t.Error("bitmaps that do not split into the rows accepted")
	}
	if _, err := MaskedPairCount(m, a, a, make([]uint64, 20*9), a.RowPtr[1:], Options{}); err == nil {
		t.Error("bitmap rows of 9 words accepted")
	}
	if _, err := MaskedPairCount(m, a, a, nil, make([]Index, 19), Options{}); err == nil {
		t.Error("walk ends that do not match the rows of A accepted")
	}
	if _, err := MaskedPairCount(m, a, a, nil, nil, Options{}); err == nil {
		t.Error("no walk ends accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MaskedPairCount(m, a, a, nil, a.RowPtr[1:], Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: got %v, want context.Canceled", err)
	}
}
