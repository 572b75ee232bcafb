package planner

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// innerCorner returns operands in the sparse-mask corner, where the planner
// runs Inner: about one mask entry per row and denser A and B.
func innerCorner(t *testing.T, n Index, seed uint64) (*matrix.Pattern, *matrix.CSR[float64], *matrix.CSR[float64]) {
	t.Helper()
	m := grgen.Random01Mask(n, n, 1, seed)
	a := grgen.ErdosRenyi(n, 24, seed+1)
	b := grgen.ErdosRenyi(n, 24, seed+2)
	if p := Analyze(m, a.Pattern(), b.Pattern(), core.Options{}); !p.hasInner() {
		t.Fatalf("sparse-mask operands planned without Inner:\n%s", p.Explain())
	}
	return m, a, b
}

// sameBits reports whether two products are byte-identical: equal shapes
// and index arrays, and values equal bit for bit.
func sameBits[T any](x, y *matrix.CSR[T]) bool {
	if x.NRows != y.NRows || x.NCols != y.NCols || len(x.Col) != len(y.Col) || len(x.Val) != len(y.Val) {
		return false
	}
	for i := range x.RowPtr {
		if x.RowPtr[i] != y.RowPtr[i] {
			return false
		}
	}
	for k := range x.Col {
		if x.Col[k] != y.Col[k] {
			return false
		}
		switch v := any(x.Val[k]).(type) {
		case float64:
			if math.Float64bits(v) != math.Float64bits(any(y.Val[k]).(float64)) {
				return false
			}
		default:
			if any(x.Val[k]) != any(y.Val[k]) {
				return false
			}
		}
	}
	return true
}

// cachedRun analyzes and executes one product on c.
func cachedRun[T any](t *testing.T, c *Cache, m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], opt core.Options) (*matrix.CSR[T], *Plan) {
	t.Helper()
	p := c.Analyze(m, a.Pattern(), b.Pattern(), opt)
	out, err := Execute(p, m, a, b, sr, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out, p
}

// checkReuse runs one product three times on one cache (a miss, a hit that
// builds the transpose, a hit that reuses it) and compares each with a cold
// cache's product.
func checkReuse[T any](t *testing.T, name string, m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T]) {
	for _, complement := range []bool{false, true} {
		opt := core.Options{Complement: complement, Threads: 2}
		want, _ := cachedRun(t, NewCache(), m, a, b, sr, opt)
		c := NewCache()
		var p *Plan
		for i := 0; i < 3; i++ {
			var got *matrix.CSR[T]
			got, p = cachedRun(t, c, m, a, b, sr, opt)
			if !sameBits(got, want) {
				t.Fatalf("%s complement=%v call %d: product differs from a cold cache's", name, complement, i)
			}
		}
		st := c.Stats()
		wantBuilds, wantReuses := int64(1), int64(1)
		if !p.hasInner() {
			// The planner never runs Inner under a complemented mask.
			wantBuilds, wantReuses = 0, 0
		}
		if st.TransposeBuilds != wantBuilds || st.TransposeReuses != wantReuses {
			t.Fatalf("%s complement=%v: %d transposes built, %d reused; want %d and %d",
				name, complement, st.TransposeBuilds, st.TransposeReuses, wantBuilds, wantReuses)
		}
	}
}

// TestReusedTransposeBitIdentical: a product whose Inner blocks read the
// memo's transpose is byte-identical to a cold cache's product, for
// every named semiring and both mask modes.
func TestReusedTransposeBitIdentical(t *testing.T) {
	m, a, b := innerCorner(t, 96, 11)
	toInt := func(v float64) int64 { return int64(v*16) - 7 }
	toBool := func(v float64) bool { return v > 0.5 }
	ai, bi := matrix.MapValues(a, toInt), matrix.MapValues(b, toInt)
	ab, bb := matrix.MapValues(a, toBool), matrix.MapValues(b, toBool)
	for _, tc := range []struct {
		name string
		sr   semiring.Semiring[float64]
	}{
		{"arithmetic", semiring.Arithmetic()},
		{"plus-pair-f64", semiring.PlusPairF()},
		{"min-plus", semiring.MinPlus()},
		{"plus-second", semiring.PlusSecond()},
		{"plus-first", semiring.PlusFirst()},
		{"max-times", semiring.MaxTimes()},
	} {
		checkReuse(t, tc.name, m, a, b, tc.sr)
	}
	checkReuse(t, "arithmetic-int", m, ai, bi, semiring.ArithmeticInt())
	checkReuse(t, "plus-pair", m, ai, bi, semiring.PlusPair())
	checkReuse(t, "boolean", m, ab, bb, semiring.Boolean())
}

// TestTransposeExactIdentity: a B in other storage never reuses the kept
// transpose, even when it lands on the same entry (it shares B's RowPtr,
// the cache key) with equal content or with equal shape and nnz but other
// values, or has another element type. A deep copy is a new entry, whose
// hits build their own.
func TestTransposeExactIdentity(t *testing.T) {
	m, a, b := innerCorner(t, 96, 21)
	sr := semiring.Arithmetic()
	c := NewCache()
	for i := 0; i < 3; i++ {
		cachedRun(t, c, m, a, b, sr, core.Options{})
	}
	// The memo now holds the transpose of b's own arrays; each check below
	// differs from the previous operand in one array at least.
	check := func(what string, bx *matrix.CSR[float64], wantHit bool) {
		t.Helper()
		before := c.Stats()
		want, _ := cachedRun(t, NewCache(), m, a, bx, sr, core.Options{})
		got, p := cachedRun(t, c, m, a, bx, sr, core.Options{})
		after := c.Stats()
		if p.CacheHit != wantHit {
			t.Fatalf("%s: cache hit %v, want %v", what, p.CacheHit, wantHit)
		}
		if !sameBits(got, want) {
			t.Fatalf("%s: product differs from a cold cache's", what)
		}
		if after.TransposeReuses != before.TransposeReuses {
			t.Fatalf("%s: reused a transpose built from other arrays", what)
		}
		if wantHit && after.TransposeBuilds != before.TransposeBuilds+1 {
			t.Fatalf("%s: hit built %d transposes, want 1", what, after.TransposeBuilds-before.TransposeBuilds)
		}
	}
	other := &matrix.CSR[float64]{NRows: b.NRows, NCols: b.NCols, RowPtr: b.RowPtr, Col: b.Col, Val: make([]float64, len(b.Val))}
	for k, v := range b.Val {
		other.Val[k] = v*3 + 1
	}
	check("same shape and nnz, other values", other, true)
	equal := &matrix.CSR[float64]{NRows: b.NRows, NCols: b.NCols, RowPtr: b.RowPtr,
		Col: append([]Index(nil), b.Col...), Val: append([]float64(nil), b.Val...)}
	check("equal content in other Col and Val arrays", equal, true)
	check("deep copy (a new entry)", b.Clone(), false)

	// Another element type on the same RowPtr and Col: the kept
	// transpose holds float64 values, so it must not serve int64.
	bi := &matrix.CSR[int64]{NRows: b.NRows, NCols: b.NCols, RowPtr: b.RowPtr, Col: b.Col, Val: make([]int64, len(b.Val))}
	for k := range bi.Val {
		bi.Val[k] = int64(k%5) + 1
	}
	ai := matrix.MapValues(a, func(v float64) int64 { return int64(v * 8) })
	before := c.Stats()
	want, _ := cachedRun(t, NewCache(), m, ai, bi, semiring.ArithmeticInt(), core.Options{})
	got, p := cachedRun(t, c, m, ai, bi, semiring.ArithmeticInt(), core.Options{})
	if !p.CacheHit || !sameBits(got, want) {
		t.Fatalf("int64 B on a float64 entry: hit %v, identical %v", p.CacheHit, sameBits(got, want))
	}
	if after := c.Stats(); after.TransposeReuses != before.TransposeReuses {
		t.Fatal("int64 B reused a float64 transpose")
	}
}

// TestSortRecheckSkippedOnSameArrays: a hit on M and A arrays an earlier
// hit found sorted skips the scan; other arrays are re-scanned.
func TestSortRecheckSkippedOnSameArrays(t *testing.T) {
	m, a, b := innerCorner(t, 64, 31)
	c := NewCache()
	c.Analyze(m, a.Pattern(), b.Pattern(), core.Options{}) // miss: nothing stored
	for i := 0; i < 3; i++ {
		c.Analyze(m, a.Pattern(), b.Pattern(), core.Options{})
	}
	if st := c.Stats(); st.SortRechecks != 1 || st.SortRechecksSkipped != 2 {
		t.Fatalf("same arrays: %d re-checks run, %d skipped; want 1 and 2", st.SortRechecks, st.SortRechecksSkipped)
	}
	if p := c.Analyze(m, a.Clone().Pattern(), b.Pattern(), core.Options{}); !p.CacheHit {
		t.Fatal("a sorted copy of A missed the cache")
	}
	if st := c.Stats(); st.SortRechecks != 2 {
		t.Fatalf("a copy of A skipped the re-check (%d run)", st.SortRechecks)
	}
}

// TestUnsortedFreshAReanalyzed: a hit that brings a fresh A with an
// unsorted row, after the memo has stored the sorted A it last saw, is
// caught by the re-check and re-analyzed into a plan for unsorted rows.
func TestUnsortedFreshAReanalyzed(t *testing.T) {
	m, a, b := innerCorner(t, 64, 41)
	sr := semiring.Arithmetic()
	c := NewCache()
	for i := 0; i < 3; i++ {
		cachedRun(t, c, m, a, b, sr, core.Options{})
	}
	bad := a.Clone()
	for i := Index(0); i < bad.NRows; i++ {
		if lo, hi := bad.RowPtr[i], bad.RowPtr[i+1]; hi-lo >= 2 {
			bad.Col[lo], bad.Col[lo+1] = bad.Col[lo+1], bad.Col[lo]
			bad.Val[lo], bad.Val[lo+1] = bad.Val[lo+1], bad.Val[lo]
			break
		}
	}
	got, p := cachedRun(t, c, m, bad, b, sr, core.Options{})
	if p.CacheHit || p.Stats.Sorted || p.NeedsSortedRows() {
		t.Fatalf("unsorted A: hit %v, sorted %v, needs sorted rows %v; want a re-analyzed plan for unsorted rows",
			p.CacheHit, p.Stats.Sorted, p.NeedsSortedRows())
	}
	want, err := core.MaskedSpGEMM(core.Variant{Alg: core.MSA, Phase: core.OnePhase}, m, bad, b, sr, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Fatal("unsorted A: product differs from MSA-1P")
	}
}

// TestFreshBPerCallBuildsNoTranspose: a loop that builds a new B for every
// call (k-truss) never hits the cache, so it keeps no transpose and no
// sorted arrays.
func TestFreshBPerCallBuildsNoTranspose(t *testing.T) {
	m, a, b := innerCorner(t, 64, 51)
	sr := semiring.Arithmetic()
	c := NewCache()
	for i := 0; i < 10; i++ {
		_, p := cachedRun(t, c, m, a, b.Clone(), sr, core.Options{})
		if !p.hasInner() {
			t.Fatal("fresh B planned without Inner")
		}
	}
	st := c.Stats()
	if st.Hits != 0 || st.TransposeBuilds != 0 || st.TransposeReuses != 0 || st.SortRechecks != 0 {
		t.Fatalf("fresh B per call: %+v, want no hits, transposes or re-checks", st)
	}
}

// TestPlanReuseConcurrent: concurrent hits on one entry, some with the
// operands the entry last saw and some with other A, B or B values sharing
// its key, all produce the cold product of their own operands. Meanwhile
// other copies of B under the same key are made hot, dropped and
// collected, so the memo's cleanups run while hits read it. Run under
// -race, it checks that the memo publishes and removes state safely.
func TestPlanReuseConcurrent(t *testing.T) {
	m, a, b := innerCorner(t, 64, 61)
	sr := semiring.Arithmetic()
	other := &matrix.CSR[float64]{NRows: b.NRows, NCols: b.NCols, RowPtr: b.RowPtr, Col: b.Col, Val: make([]float64, len(b.Val))}
	for k, v := range b.Val {
		other.Val[k] = -v
	}
	a2 := a.Clone()
	type combo struct{ a, b *matrix.CSR[float64] }
	combos := []combo{{a, b}, {a, b}, {a, other}, {a2, b}, {a2, other}}
	want := make([]*matrix.CSR[float64], len(combos))
	for i, cb := range combos {
		want[i], _ = cachedRun(t, NewCache(), m, cb.a, cb.b, sr, core.Options{})
	}
	c := NewCache()
	cachedRun(t, c, m, a, b, sr, core.Options{})
	run := func(who string, i int, a, b *matrix.CSR[float64], want *matrix.CSR[float64]) bool {
		p := c.Analyze(m, a.Pattern(), b.Pattern(), core.Options{Threads: 1})
		got, err := Execute(p, m, a, b, sr, core.Options{Threads: 1}, nil)
		if err != nil {
			t.Error(err)
			return false
		}
		if !sameBits(got, want) {
			t.Errorf("%s call %d: product differs from the cold one", who, i)
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			dropped := copyOfB(b)
			if !run("dropped copy", 2*i, a, dropped, want[0]) || !run("dropped copy", 2*i+1, a, dropped, want[0]) {
				return
			}
			runtime.GC()
		}
	}()
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (w + i) % len(combos)
				if !run(fmt.Sprintf("worker %d combination %d", w, k), i, combos[k].a, combos[k].b, want[k]) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.TransposeBuilds == 0 {
		t.Fatalf("concurrent hits built no transpose: %+v", st)
	}
	// Quiescent again: the memo serves the operands still alive.
	for i := 0; i < 2; i++ {
		cachedRun(t, c, m, a, b, sr, core.Options{})
	}
	before := c.Stats()
	got, _ := cachedRun(t, c, m, a, b, sr, core.Options{})
	after := c.Stats()
	if !sameBits(got, want[0]) || after.TransposeReuses != before.TransposeReuses+1 || after.SortRechecksSkipped != before.SortRechecksSkipped+1 {
		t.Fatalf("after the concurrent hits: identical %v, reuses %d -> %d, skips %d -> %d",
			sameBits(got, want[0]), before.TransposeReuses, after.TransposeReuses, before.SortRechecksSkipped, after.SortRechecksSkipped)
	}
}

// copyOfB returns a B that shares b's RowPtr, so it lands on b's plan
// cache entry, with Col and Val arrays of its own.
func copyOfB(b *matrix.CSR[float64]) *matrix.CSR[float64] {
	return &matrix.CSR[float64]{NRows: b.NRows, NCols: b.NCols, RowPtr: b.RowPtr,
		Col: append([]Index(nil), b.Col...), Val: append([]float64(nil), b.Val...)}
}

// waitReleased collects garbage until c keeps no transpose. Cleanups run
// on their own goroutine after a collection, so the wait is bounded in
// time rather than in collections.
func waitReleased(t *testing.T, c *Cache) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		runtime.GC()
		if c.Stats().RetainedBytes == 0 {
			return
		}
	}
	t.Fatalf("a transpose outlived its B: %d bytes still retained", c.Stats().RetainedBytes)
}

// TestDerivedStateDiesWithOperand: the transpose a hot product keeps lives
// exactly as long as its B. Once B's arrays are dropped and collected the
// memo releases it (although the plan entry, which pins B's RowPtr, is
// still resident), and a new B of the same shape on the same entry builds
// its own instead of reusing it.
func TestDerivedStateDiesWithOperand(t *testing.T) {
	m, a, b := innerCorner(t, 96, 81)
	sr := semiring.Arithmetic()
	want, _ := cachedRun(t, NewCache(), m, a, b, sr, core.Options{})
	c := NewCache()
	func() {
		hot := copyOfB(b)
		for i := 0; i < 3; i++ {
			cachedRun(t, c, m, a, hot, sr, core.Options{})
		}
	}()
	if st := c.Stats(); st.TransposeBuilds != 1 || st.TransposeReuses != 1 || st.RetainedBytes == 0 {
		t.Fatalf("hot product: %d transposes built, %d reused, %d bytes retained; want 1, 1 and some",
			st.TransposeBuilds, st.TransposeReuses, st.RetainedBytes)
	}
	waitReleased(t, c)
	before := c.Stats()
	got, p := cachedRun(t, c, m, a, copyOfB(b), sr, core.Options{})
	after := c.Stats()
	if !p.CacheHit || after.TransposeBuilds != before.TransposeBuilds+1 || after.TransposeReuses != before.TransposeReuses {
		t.Fatalf("new B after the old one died: hit %v, builds %d -> %d, reuses %d -> %d; want a hit that builds",
			p.CacheHit, before.TransposeBuilds, after.TransposeBuilds, before.TransposeReuses, after.TransposeReuses)
	}
	if !sameBits(got, want) {
		t.Fatal("new B: product differs from a cold cache's")
	}
}

// staticRowPtr and staticCol are package-level data, outside the Go heap.
var (
	staticRowPtr = []Index{0, 2, 4, 6, 8}
	staticCol    = []Index{0, 1, 1, 2, 2, 3, 0, 3}
)

// TestRetainedBytesBounded: a transpose larger than the memo's bound is
// built per hit and never kept, and nothing is kept for a Col array too
// small for its cleanup to be sure to run, or for arrays outside the Go
// heap, which weak pointers cannot name. Products stay identical to a
// cold cache's.
func TestRetainedBytesBounded(t *testing.T) {
	m, a, b := innerCorner(t, 64, 71)
	sr := semiring.Arithmetic()
	want, _ := cachedRun(t, NewCache(), m, a, b, sr, core.Options{})
	c := NewCache()
	c.memo.maxBytes = 1
	for i := 0; i < 4; i++ {
		if got, _ := cachedRun(t, c, m, a, b, sr, core.Options{}); !sameBits(got, want) {
			t.Fatalf("call %d differs from a cold cache's", i)
		}
	}
	if st := c.Stats(); st.TransposeReuses != 0 || st.TransposeBuilds != 3 || st.RetainedBytes != 0 {
		t.Fatalf("over-bound transpose: builds %d, reuses %d, retained %d; want 3, 0 and 0",
			st.TransposeBuilds, st.TransposeReuses, st.RetainedBytes)
	}

	tiny := &matrix.Pattern{NRows: 2, NCols: 2, RowPtr: []Index{0, 2, 3}, Col: []Index{0, 1, 1}}
	c.memo.update(patternOf(tiny.RowPtr, tiny.Col), func(e *memoEntry) { e.sorted = true })
	if c.memo.lookup(patternOf(tiny.RowPtr, tiny.Col)) != nil {
		t.Fatal("kept state for a 12-byte Col array")
	}
	c.memo.update(patternOf(staticRowPtr, staticCol), func(e *memoEntry) { e.sorted = true })
	if c.memo.lookup(patternOf(staticRowPtr, staticCol)) != nil {
		t.Fatal("kept state for package-level arrays")
	}
}
