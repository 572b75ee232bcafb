package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomCOO(r *rand.Rand, m, n Index, nnz int) *COO[float64] {
	c := &COO[float64]{NRows: m, NCols: n}
	for e := 0; e < nnz; e++ {
		c.Row = append(c.Row, Index(r.Intn(int(m))))
		c.Col = append(c.Col, Index(r.Intn(int(n))))
		c.Val = append(c.Val, float64(r.Intn(10)))
	}
	return c
}

func add(a, b float64) float64 { return a + b }

func TestNewCSRFromCOOBasic(t *testing.T) {
	c := &COO[float64]{
		NRows: 3, NCols: 4,
		Row: []Index{2, 0, 0, 2},
		Col: []Index{1, 3, 0, 1},
		Val: []float64{5, 2, 1, 7},
	}
	a := NewCSRFromCOO(c, add)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3 (duplicate folded)", a.NNZ())
	}
	if !a.IsSortedRows() {
		t.Fatal("rows not sorted")
	}
	d := ToDense(a)
	if v, ok := d.At(2, 1); !ok || v != 12 {
		t.Fatalf("folded duplicate: got %v,%v want 12", v, ok)
	}
	if v, ok := d.At(0, 0); !ok || v != 1 {
		t.Fatalf("(0,0): got %v,%v", v, ok)
	}
	if _, ok := d.At(1, 0); ok {
		t.Fatal("row 1 should be empty")
	}
}

func TestNewCSRFromCOOOverwrite(t *testing.T) {
	c := &COO[float64]{
		NRows: 1, NCols: 2,
		Row: []Index{0, 0},
		Col: []Index{1, 1},
		Val: []float64{3, 9},
	}
	a := NewCSRFromCOO(c, nil) // nil combine: last wins
	if a.NNZ() != 1 || a.Val[0] != 9 {
		t.Fatalf("got nnz=%d val=%v, want 1, 9", a.NNZ(), a.Val)
	}
}

func TestTransposeInvolution(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Index(1 + r.Intn(30))
		n := Index(1 + r.Intn(30))
		a := NewCSRFromCOO(randomCOO(r, m, n, r.Intn(200)), add)
		tt := Transpose(Transpose(a))
		return Equal(a, tt, func(x, y float64) bool { return x == y })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeEntries(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	a := NewCSRFromCOO(randomCOO(r, 10, 15, 60), add)
	at := Transpose(a)
	if err := at.Validate(); err != nil {
		t.Fatal(err)
	}
	if at.NRows != a.NCols || at.NCols != a.NRows {
		t.Fatal("dims not swapped")
	}
	da, dt := ToDense(a), ToDense(at)
	for i := Index(0); i < a.NRows; i++ {
		for j := Index(0); j < a.NCols; j++ {
			va, oka := da.At(i, j)
			vt, okt := dt.At(j, i)
			if oka != okt || (oka && va != vt) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestCSCRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Index(1 + r.Intn(25))
		n := Index(1 + r.Intn(25))
		a := NewCSRFromCOO(randomCOO(r, m, n, r.Intn(150)), add)
		back := FromCSC(ToCSC(a))
		return Equal(a, back, func(x, y float64) bool { return x == y })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCSCColumnsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	a := NewCSRFromCOO(randomCOO(r, 20, 20, 100), add)
	c := ToCSC(a)
	for j := Index(0); j < c.NCols; j++ {
		rows, _ := c.Column(j)
		for k := 1; k < len(rows); k++ {
			if rows[k-1] >= rows[k] {
				t.Fatalf("column %d not strictly sorted", j)
			}
		}
	}
	if c.NNZ() != a.NNZ() {
		t.Fatal("nnz changed")
	}
}

func TestTrilTriu(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	a := NewCSRFromCOO(randomCOO(r, 20, 20, 150), add)
	l, u := Tril(a), Triu(a)
	for i := Index(0); i < 20; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]; k++ {
			if l.Col[k] >= i {
				t.Fatal("Tril kept non-lower entry")
			}
		}
		for k := u.RowPtr[i]; k < u.RowPtr[i+1]; k++ {
			if u.Col[k] <= i {
				t.Fatal("Triu kept non-upper entry")
			}
		}
	}
	diag := 0
	for i := Index(0); i < 20; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if j == i {
				diag++
			}
		}
	}
	if l.NNZ()+u.NNZ()+diag != a.NNZ() {
		t.Fatal("tril+triu+diag != all")
	}
}

func TestPermutePreservesGraph(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	n := Index(15)
	a := NewCSRFromCOO(randomCOO(r, n, n, 60), add)
	// Random permutation.
	perm := make([]Index, n)
	for i := range perm {
		perm[i] = Index(i)
	}
	r.Shuffle(int(n), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	p := Permute(a, perm)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NNZ() != a.NNZ() {
		t.Fatal("nnz changed")
	}
	da, dp := ToDense(a), ToDense(p)
	for i := Index(0); i < n; i++ {
		for j := Index(0); j < n; j++ {
			va, oka := da.At(i, j)
			vp, okp := dp.At(perm[i], perm[j])
			if oka != okp || (oka && va != vp) {
				t.Fatalf("permute mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	a := NewCSRFromCOO(randomCOO(r, 5, 5, 10), add)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := a.Clone()
	if bad.NNZ() > 0 {
		bad.Col[0] = 99
		if bad.Validate() == nil {
			t.Fatal("expected out-of-range column error")
		}
	}
	bad2 := a.Clone()
	bad2.RowPtr[1] = bad2.RowPtr[0] - 1
	if bad2.Validate() == nil {
		t.Fatal("expected monotonicity error")
	}
	bad3 := a.Clone()
	bad3.RowPtr = bad3.RowPtr[:len(bad3.RowPtr)-1]
	if bad3.Validate() == nil {
		t.Fatal("expected length error")
	}
	p := a.Pattern()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSortedRowsIn checks the range form of IsSortedRows: a range sees
// only its own rows, a duplicate counts as unsorted, and a degenerate
// zero-value pattern reports sorted over any range.
func TestSortedRowsIn(t *testing.T) {
	p := &Pattern{NRows: 3, NCols: 9, RowPtr: []Index{0, 2, 4, 6}, Col: []Index{1, 4, 5, 2, 3, 3}}
	for _, c := range []struct {
		lo, hi Index
		want   bool
	}{{0, 1, true}, {0, 2, false}, {1, 2, false}, {2, 3, false}, {0, 0, true}, {0, 3, false}} {
		if got := p.SortedRowsIn(c.lo, c.hi); got != c.want {
			t.Errorf("SortedRowsIn(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	if p.IsSortedRows() {
		t.Error("IsSortedRows = true on unsorted rows")
	}
	z := &Pattern{NRows: 4}
	if !z.SortedRowsIn(0, 4) || !z.IsSortedRows() {
		t.Error("zero-value pattern must report sorted")
	}
}

func TestSortRows(t *testing.T) {
	a := &CSR[float64]{
		NRows: 2, NCols: 40,
		RowPtr: []Index{0, 3, 6},
		Col:    []Index{5, 1, 3, 30, 10, 20},
		Val:    []float64{50, 10, 30, 300, 100, 200},
	}
	a.SortRows()
	if !a.IsSortedRows() {
		t.Fatal("not sorted")
	}
	d := ToDense(a)
	for _, chk := range []struct {
		i, j Index
		v    float64
	}{{0, 1, 10}, {0, 3, 30}, {0, 5, 50}, {1, 10, 100}, {1, 20, 200}, {1, 30, 300}} {
		if v, ok := d.At(chk.i, chk.j); !ok || v != chk.v {
			t.Fatalf("value moved incorrectly at (%d,%d)", chk.i, chk.j)
		}
	}
	// Long row path (sort.Sort branch).
	n := 100
	long := &CSR[float64]{NRows: 1, NCols: Index(n), RowPtr: []Index{0, Index(n)}}
	for i := n - 1; i >= 0; i-- {
		long.Col = append(long.Col, Index(i))
		long.Val = append(long.Val, float64(i))
	}
	long.SortRows()
	if !long.IsSortedRows() {
		t.Fatal("long row not sorted")
	}
	for k, j := range long.Col {
		if long.Val[k] != float64(j) {
			t.Fatal("values detached from columns")
		}
	}
}

func TestEWiseAdd(t *testing.T) {
	a := NewCSRFromCOO(&COO[float64]{NRows: 2, NCols: 3,
		Row: []Index{0, 0, 1}, Col: []Index{0, 2, 1}, Val: []float64{1, 2, 3}}, add)
	b := NewCSRFromCOO(&COO[float64]{NRows: 2, NCols: 3,
		Row: []Index{0, 1, 1}, Col: []Index{2, 1, 2}, Val: []float64{10, 20, 30}}, add)
	s := EWiseAdd(a, b, add)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	d := ToDense(s)
	checks := []struct {
		i, j Index
		v    float64
	}{{0, 0, 1}, {0, 2, 12}, {1, 1, 23}, {1, 2, 30}}
	if s.NNZ() != len(checks) {
		t.Fatalf("nnz = %d, want %d", s.NNZ(), len(checks))
	}
	for _, c := range checks {
		if v, ok := d.At(c.i, c.j); !ok || v != c.v {
			t.Fatalf("(%d,%d) = %v,%v want %v", c.i, c.j, v, ok, c.v)
		}
	}
}

func TestEWiseMult(t *testing.T) {
	a := NewCSRFromCOO(&COO[float64]{NRows: 2, NCols: 3,
		Row: []Index{0, 0, 1}, Col: []Index{0, 2, 1}, Val: []float64{2, 3, 4}}, add)
	b := NewCSRFromCOO(&COO[float64]{NRows: 2, NCols: 3,
		Row: []Index{0, 1, 1}, Col: []Index{2, 1, 2}, Val: []float64{10, 20, 30}}, add)
	m := EWiseMult(a, b, func(x, y float64) float64 { return x * y })
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want 2", m.NNZ())
	}
	d := ToDense(m)
	if v, _ := d.At(0, 2); v != 30 {
		t.Fatalf("(0,2) = %v, want 30", v)
	}
	if v, _ := d.At(1, 1); v != 80 {
		t.Fatalf("(1,1) = %v, want 80", v)
	}
}

func TestMaskPattern(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	a := NewCSRFromCOO(randomCOO(r, 12, 12, 50), add)
	m := NewCSRFromCOO(randomCOO(r, 12, 12, 50), add).Pattern()
	got := MaskPattern(a, m)
	if !PatternSubset(got.Pattern(), m) {
		t.Fatal("masked result not subset of mask")
	}
	if !PatternSubset(got.Pattern(), a.Pattern()) {
		t.Fatal("masked result not subset of input")
	}
	// Every position in both must survive.
	da := ToDense(a)
	dg := ToDense(got)
	for i := Index(0); i < 12; i++ {
		for _, j := range m.Row(i) {
			va, oka := da.At(i, j)
			vg, okg := dg.At(i, j)
			if oka != okg || (oka && va != vg) {
				t.Fatalf("mask intersection wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestSumAndMapValues(t *testing.T) {
	a := NewCSRFromCOO(&COO[float64]{NRows: 2, NCols: 2,
		Row: []Index{0, 1}, Col: []Index{1, 0}, Val: []float64{2.5, 3.5}}, add)
	if s := Sum(a); s != 6 {
		t.Fatalf("Sum = %v", s)
	}
	doubled := MapValues(a, func(v float64) float64 { return 2 * v })
	if s := Sum(doubled); s != 12 {
		t.Fatalf("after MapValues Sum = %v", s)
	}
	ints := MapValues(a, func(v float64) int64 { return int64(v) })
	if ints.Val[0] != 2 || ints.Val[1] != 3 {
		t.Fatalf("MapValues to int64 = %v", ints.Val)
	}
}

func TestFromPatternAndFilterEntries(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	a := NewCSRFromCOO(randomCOO(r, 10, 10, 40), add)
	p := a.Pattern()
	ones := FromPattern(p, 1.0)
	if ones.NNZ() != p.NNZ() {
		t.Fatal("FromPattern changed nnz")
	}
	for _, v := range ones.Val {
		if v != 1 {
			t.Fatal("FromPattern value wrong")
		}
	}
	diagOnly := FilterEntries(a, func(i, j Index, _ float64) bool { return i == j })
	for i := Index(0); i < diagOnly.NRows; i++ {
		cols, _ := diagOnly.Row(i)
		for _, j := range cols {
			if j != i {
				t.Fatal("FilterEntries kept off-diagonal")
			}
		}
	}
}

func TestEqualAndSubset(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	a := NewCSRFromCOO(randomCOO(r, 8, 8, 30), add)
	eq := func(x, y float64) bool { return x == y }
	if !Equal(a, a.Clone(), eq) {
		t.Fatal("clone must equal original")
	}
	b := a.Clone()
	if b.NNZ() > 0 {
		b.Val[0]++
		if Equal(a, b, eq) {
			t.Fatal("value change not detected")
		}
	}
	if !PatternSubset(Tril(a).Pattern(), a.Pattern()) {
		t.Fatal("tril must be subset")
	}
	if !EqualPatterns(a.Pattern(), a.Clone().Pattern()) {
		t.Fatal("pattern equality")
	}
}

func TestTransposePattern(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	a := NewCSRFromCOO(randomCOO(r, 9, 13, 40), add)
	pt := TransposePattern(a.Pattern())
	tp := Transpose(a).Pattern()
	if !EqualPatterns(pt, tp) {
		t.Fatal("TransposePattern disagrees with Transpose")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := Index(1 + r.Intn(20))
		n := Index(1 + r.Intn(20))
		a := NewCSRFromCOO(randomCOO(r, m, n, r.Intn(80)), add)
		back := FromDense(ToDense(a))
		return Equal(a, back, func(x, y float64) bool { return x == y })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMatrices(t *testing.T) {
	e := NewEmptyCSR[float64](0, 0)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if Transpose(e).NNZ() != 0 {
		t.Fatal("transpose of empty")
	}
	e2 := NewEmptyCSR[float64](5, 3)
	if Transpose(e2).NRows != 3 {
		t.Fatal("transpose dims")
	}
	if ToCSC(e2).NNZ() != 0 {
		t.Fatal("csc of empty")
	}
	if !e2.IsSortedRows() {
		t.Fatal("empty rows are sorted")
	}
}
