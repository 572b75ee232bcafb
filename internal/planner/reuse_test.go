package planner

import (
	"math"
	"sync"
	"testing"

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
// cache entry's transpose is byte-identical to a cold cache's product, for
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

// TestTransposeExactIdentity: a B in other storage never reuses the entry's
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
	// The entry now holds the transpose of b's own arrays; each check below
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

	// Another element type on the same RowPtr and Col: the entry's
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

// TestSortRecheckSkippedOnSameArrays: a hit on the M and A arrays the entry
// last found sorted skips the scan; other arrays are re-scanned.
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
// unsorted row, after the entry has stored the sorted A it last saw, is
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
// call (k-truss, MCL) never hits the cache, so it keeps no transpose and no
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
// its key, all produce the cold product of their own operands. Run under
// -race, it checks that the entry's derived state is published safely.
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
	var wg sync.WaitGroup
	// Resets race with the hits' stores: every state an unlinked entry
	// held, or a hit on it stores later, must be released.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			c.Reset()
		}
	}()
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (w + i) % len(combos)
				p := c.Analyze(m, combos[k].a.Pattern(), combos[k].b.Pattern(), core.Options{Threads: 1})
				got, err := Execute(p, m, combos[k].a, combos[k].b, sr, core.Options{Threads: 1}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameBits(got, want[k]) {
					t.Errorf("worker %d call %d: product of combination %d differs from the cold one", w, i, k)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.TransposeBuilds == 0 {
		t.Fatalf("concurrent hits built no transpose: %+v", st)
	}
	checkRetained(t, c)
	// Quiescent again: the entry settles on the operands it last saw.
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

// checkRetained: the cache's retained-bytes gauge equals the state its
// resident entries hold. Call it only while no hit is in flight.
func checkRetained(t *testing.T, c *Cache) {
	t.Helper()
	var held int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			fb := el.Value.(*cacheEntry).plan.fb
			held += fb.csc.Load().size() + fb.sorted.Load().size()
		}
		sh.mu.Unlock()
	}
	if got := c.Stats().RetainedBytes; got != held {
		t.Fatalf("RetainedBytes %d, resident entries hold %d", got, held)
	}
}

// TestRetainedBytesBounded: the derived state a cache keeps never exceeds
// its byte budget. A hot product makes room by shedding the least
// recently used state; state larger than the budget is not kept; products
// stay identical to a cold cache's throughout. Evicted entries and Reset
// return their bytes, and a plan copy that outlives its entry stores
// nothing more.
func TestRetainedBytesBounded(t *testing.T) {
	sr := semiring.Arithmetic()
	opt := core.Options{Threads: 2}
	type product struct {
		m    *matrix.Pattern
		a, b *matrix.CSR[float64]
		want *matrix.CSR[float64]
	}
	var ps []product
	for i := uint64(0); i < 6; i++ {
		m, a, b := innerCorner(t, 64, 71+10*i)
		want, _ := cachedRun(t, NewCache(), m, a, b, sr, opt)
		ps = append(ps, product{m, a, b, want})
	}
	// One product's state: a miss, then a hit that keeps both pieces.
	probe := NewCache()
	for i := 0; i < 2; i++ {
		cachedRun(t, probe, ps[0].m, ps[0].a, ps[0].b, sr, opt)
	}
	one := probe.Stats().RetainedBytes
	if one == 0 {
		t.Fatal("a hot Inner product retained nothing")
	}

	run := func(c *Cache, i, calls int) {
		t.Helper()
		for k := 0; k < calls; k++ {
			if got, _ := cachedRun(t, c, ps[i].m, ps[i].a, ps[i].b, sr, opt); !sameBits(got, ps[i].want) {
				t.Fatalf("product %d call %d differs from a cold cache's", i, k)
			}
			if r := c.Stats().RetainedBytes; r > c.retainCap {
				t.Fatalf("product %d call %d: retained %d bytes, budget %d", i, k, r, c.retainCap)
			}
		}
	}
	holders := func(c *Cache) int {
		c.retainMu.Lock()
		defer c.retainMu.Unlock()
		return len(c.holders)
	}

	// Room for one product's state: each hot product sheds the previous
	// one's, so each builds once and reuses once.
	c := NewCache()
	c.retainCap = one + one/2
	for i := range ps {
		run(c, i, 3)
	}
	checkRetained(t, c)
	if st := c.Stats(); st.TransposeBuilds != int64(len(ps)) || st.TransposeReuses != int64(len(ps)) || holders(c) != 1 {
		t.Fatalf("builds %d, reuses %d, %d entries holding state; want %d, %d, 1",
			st.TransposeBuilds, st.TransposeReuses, holders(c), len(ps), len(ps))
	}

	// Room for two: the state shed is the least recently used.
	c = NewCache()
	c.retainCap = 2*one + one/2
	run(c, 0, 3)
	run(c, 1, 3)
	run(c, 0, 1) // product 0 is now the more recent
	run(c, 2, 3) // sheds product 1's state
	before := c.Stats()
	run(c, 0, 1)
	if st := c.Stats(); st.TransposeBuilds != before.TransposeBuilds {
		t.Fatal("the recently used state was shed")
	}
	run(c, 1, 1)
	if st := c.Stats(); st.TransposeBuilds != before.TransposeBuilds+1 {
		t.Fatal("the least recently used state was kept")
	}
	checkRetained(t, c)

	// A transpose larger than the whole budget is built per hit, never kept.
	c = NewCache()
	c.retainCap = one / 2
	run(c, 0, 4)
	if st := c.Stats(); st.TransposeReuses != 0 || st.TransposeBuilds != 3 {
		t.Fatalf("over-budget transpose: builds %d, reuses %d; want 3 and 0", st.TransposeBuilds, st.TransposeReuses)
	}
	checkRetained(t, c)

	c = NewCache()
	run(c, 0, 2)
	_, held := cachedRun(t, c, ps[0].m, ps[0].a, ps[0].b, sr, opt)
	c.Reset()
	if r := c.Stats().RetainedBytes; r != 0 {
		t.Fatalf("retained %d bytes after Reset", r)
	}
	if got, err := Execute(held, ps[0].m, ps[0].a, ps[0].b, sr, opt, nil); err != nil || !sameBits(got, ps[0].want) {
		t.Fatalf("plan executed after Reset: %v", err)
	}
	if r := c.Stats().RetainedBytes; r != 0 {
		t.Fatalf("a plan outliving its entry retained %d bytes", r)
	}

	// One entry per shard: products that share a shard evict each other,
	// and every eviction returns the evicted entry's bytes.
	c = NewCacheCapacity(cacheShards)
	for round := 0; round < 2; round++ {
		for _, p := range ps {
			for k := 0; k < 3; k++ {
				cachedRun(t, c, p.m, p.a, p.b, sr, opt)
			}
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no product evicted another; the check below proves nothing")
	}
	checkRetained(t, c)
}
