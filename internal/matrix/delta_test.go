package matrix

import (
	"math/rand"
	"slices"
	"testing"
)

// deltaFromCOO builds a small delta overlay over a COO-built base.
func deltaFromCOO(t *testing.T, n Index, rows, cols []Index, vals []float64) *DeltaCSR[float64] {
	t.Helper()
	coo := &COO[float64]{NRows: n, NCols: n, Row: rows, Col: cols, Val: vals}
	base := NewCSRFromCOO(coo, func(a, b float64) float64 { return a + b })
	d, err := NewDeltaCSR(base)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeltaApplySemantics(t *testing.T) {
	d := deltaFromCOO(t, 4,
		[]Index{0, 0, 1, 2}, []Index{1, 3, 2, 0}, []float64{1, 2, 3, 4})
	if d.NNZ() != 4 {
		t.Fatalf("seed nnz = %d, want 4", d.NNZ())
	}
	// Insert new, overwrite existing, delete existing, delete absent,
	// duplicate insert (last wins) — all in one batch.
	was := make([]bool, 6)
	touched, err := d.ApplyBatch([]Update[float64]{
		{Row: 3, Col: 3, Val: 9},                           // new entry
		{Row: 0, Col: 1, Val: 7},                           // overwrite base entry
		{Row: 1, Col: 2, Delete: true},                     // delete base entry
		{Row: 2, Col: 3, Delete: true},                     // delete absent: no-op
		{Row: 3, Col: 0, Val: 1}, {Row: 3, Col: 0, Val: 5}, // dup insert
	}, was)
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{false, true, true, false, false, true}; !slices.Equal(was, want) {
		t.Fatalf("prior presence = %v, want %v", was, want)
	}
	if want := []Index{0, 1, 2, 3}; len(touched) != 4 || touched[0] != want[0] || touched[3] != want[3] {
		t.Fatalf("touched = %v, want %v", touched, want)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5", d.NNZ())
	}
	cur := d.Current()
	wantRow := func(i Index, cols []Index, vals []float64) {
		t.Helper()
		c, v := cur.Row(i)
		if len(c) != len(cols) {
			t.Fatalf("row %d = %v/%v, want %v/%v", i, c, v, cols, vals)
		}
		for k := range c {
			if c[k] != cols[k] || v[k] != vals[k] {
				t.Fatalf("row %d = %v/%v, want %v/%v", i, c, v, cols, vals)
			}
		}
	}
	wantRow(0, []Index{1, 3}, []float64{7, 2})
	wantRow(1, []Index{}, []float64{})
	wantRow(2, []Index{0}, []float64{4})
	wantRow(3, []Index{0, 3}, []float64{5, 9})

	// Re-inserting a deleted entry brings it back with the new value.
	if _, err := d.ApplyBatch([]Update[float64]{{Row: 1, Col: 2, Val: 8}}, nil); err != nil {
		t.Fatal(err)
	}
	c, v := d.MergedRow(1, nil, nil)
	if len(c) != 1 || c[0] != 2 || v[0] != 8 {
		t.Fatalf("revived row 1 = %v/%v, want [2]/[8]", c, v)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaOutOfRangeRejectsWholeBatch(t *testing.T) {
	d := deltaFromCOO(t, 3, []Index{0}, []Index{1}, []float64{1})
	gen := d.Gen()
	_, err := d.ApplyBatch([]Update[float64]{
		{Row: 1, Col: 1, Val: 2}, // valid
		{Row: 3, Col: 0, Val: 1}, // out of range
	}, nil)
	if err == nil {
		t.Fatal("out-of-range update accepted")
	}
	if d.Gen() != gen || d.Pending() != 0 || d.NNZ() != 1 {
		t.Fatalf("rejected batch mutated state: gen %d→%d pending=%d nnz=%d",
			gen, d.Gen(), d.Pending(), d.NNZ())
	}
	if _, err := d.ApplyBatch([]Update[float64]{{Row: 1, Col: -1, Delete: true}}, nil); err == nil {
		t.Fatal("negative column accepted")
	}
}

func TestDeltaCompactEquivalence(t *testing.T) {
	d := deltaFromCOO(t, 5,
		[]Index{0, 1, 2, 3, 4}, []Index{1, 2, 3, 4, 0}, []float64{1, 2, 3, 4, 5})
	d.SetMergeThreshold(1e9) // no auto-compact; exercise explicit Compact
	if _, err := d.ApplyBatch([]Update[float64]{
		{Row: 0, Col: 4, Val: 6},
		{Row: 2, Col: 3, Delete: true},
		{Row: 4, Col: 4, Val: 7},
	}, nil); err != nil {
		t.Fatal(err)
	}
	before := d.Current().Clone()
	nnz, gen := d.NNZ(), d.Gen()
	base := d.Compact()
	if d.Pending() != 0 {
		t.Fatalf("pending after Compact = %d", d.Pending())
	}
	if d.Gen() != gen {
		t.Fatal("Compact advanced the generation")
	}
	if d.Base() != base || d.Current() != base {
		t.Fatal("Compact did not install the merged matrix as base")
	}
	if d.NNZ() != nnz || base.NNZ() != nnz {
		t.Fatalf("nnz drifted across Compact: %d vs %d", d.NNZ(), base.NNZ())
	}
	if !Equal(before, base, func(a, b float64) bool { return a == b }) {
		t.Fatal("Compact changed matrix content")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaAutoCompactThreshold(t *testing.T) {
	d := deltaFromCOO(t, 8,
		[]Index{0, 1, 2, 3}, []Index{1, 2, 3, 4}, []float64{1, 1, 1, 1})
	d.SetMergeThreshold(0.5) // base nnz 4 → compact once pending > 2
	if _, err := d.ApplyBatch([]Update[float64]{{Row: 5, Col: 5, Val: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (below threshold)", d.Pending())
	}
	if _, err := d.ApplyBatch([]Update[float64]{
		{Row: 6, Col: 6, Val: 1}, {Row: 7, Col: 7, Val: 1},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if d.Pending() != 0 {
		t.Fatalf("pending = %d, want 0 (auto-compacted)", d.Pending())
	}
	if d.Base().NNZ() != 7 {
		t.Fatalf("base nnz after auto-compact = %d, want 7", d.Base().NNZ())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaCurrentCachedPerGeneration(t *testing.T) {
	d := deltaFromCOO(t, 3, []Index{0, 1}, []Index{1, 2}, []float64{1, 2})
	base := d.Base()
	if d.Current() != base {
		t.Fatal("Current with no pending logs should return the base")
	}
	if _, err := d.ApplyBatch([]Update[float64]{{Row: 2, Col: 0, Val: 3}}, nil); err != nil {
		t.Fatal(err)
	}
	s1 := d.Current()
	if s1 == base {
		t.Fatal("Current returned the stale base after an update")
	}
	if s2 := d.Current(); s2 != s1 {
		t.Fatal("Current rebuilt the snapshot within one generation")
	}
	if base.NNZ() != 2 {
		t.Fatal("update mutated the base")
	}
}

func TestDeltaMergedRowAgainstReference(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(7))
	d := deltaFromCOO(t, n, []Index{0}, []Index{0}, []float64{1})
	d.SetMergeThreshold(1e9)
	ref := map[[2]Index]float64{{0, 0}: 1}
	for step := 0; step < 200; step++ {
		u := Update[float64]{
			Row: Index(rng.Intn(n)), Col: Index(rng.Intn(n)),
			Val: float64(step), Delete: rng.Intn(3) == 0,
		}
		if _, err := d.ApplyBatch([]Update[float64]{u}, nil); err != nil {
			t.Fatal(err)
		}
		if u.Delete {
			delete(ref, [2]Index{u.Row, u.Col})
		} else {
			ref[[2]Index{u.Row, u.Col}] = u.Val
		}
		if rng.Intn(40) == 0 {
			d.Compact()
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NNZ() != len(ref) {
		t.Fatalf("nnz = %d, reference has %d", d.NNZ(), len(ref))
	}
	got := 0
	for i := Index(0); i < n; i++ {
		cols, vals := d.MergedRow(i, nil, nil)
		for k, j := range cols {
			want, ok := ref[[2]Index{i, j}]
			if !ok || vals[k] != want {
				t.Fatalf("entry (%d,%d)=%v, reference %v (present=%v)", i, j, vals[k], want, ok)
			}
			got++
		}
	}
	if got != len(ref) {
		t.Fatalf("merged rows yield %d entries, reference has %d", got, len(ref))
	}
}

func TestExtractAndSpliceRows(t *testing.T) {
	coo := &COO[float64]{NRows: 5, NCols: 4,
		Row: []Index{0, 0, 1, 3, 4}, Col: []Index{0, 2, 1, 3, 0},
		Val: []float64{1, 2, 3, 4, 5}}
	a := NewCSRFromCOO(coo, func(x, y float64) float64 { return x + y })
	rows := []Index{0, 3}
	sub := ExtractRows(nil, a, rows)
	if sub.NRows != 2 || sub.NNZ() != 3 {
		t.Fatalf("extracted %dx nnz=%d, want 2 rows nnz=3", sub.NRows, sub.NNZ())
	}
	if p := ExtractRowsPattern(nil, a.Pattern(), rows); p.NNZ() != 3 || p.Validate() != nil {
		t.Fatalf("pattern extraction inconsistent: nnz=%d", p.NNZ())
	}
	// Replace the extracted rows with new content and splice back.
	repl := NewCSRFromCOO(&COO[float64]{NRows: 2, NCols: 4,
		Row: []Index{0, 1, 1}, Col: []Index{3, 0, 2}, Val: []float64{9, 8, 7}},
		func(x, y float64) float64 { return x + y })
	out := SpliceRows(a, rows, repl)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	want := NewCSRFromCOO(&COO[float64]{NRows: 5, NCols: 4,
		Row: []Index{0, 1, 3, 3, 4}, Col: []Index{3, 1, 0, 2, 0},
		Val: []float64{9, 3, 8, 7, 5}},
		func(x, y float64) float64 { return x + y })
	if !Equal(out, want, func(x, y float64) bool { return x == y }) {
		t.Fatal("splice produced wrong matrix")
	}
	// Inputs untouched.
	if a.NNZ() != 5 || repl.NNZ() != 3 {
		t.Fatal("splice mutated an input")
	}

	// Edge shapes, each checked against a row-by-row rebuild: no rows at
	// all, every row, and a first or last row that grows or shrinks.
	rowsOf := func(m *CSR[float64]) [][]Index {
		out := make([][]Index, m.NRows)
		for i := range out {
			c, _ := m.Row(Index(i))
			out[i] = c
		}
		return out
	}
	subOf := func(rows [][]Index) *CSR[float64] {
		coo := &COO[float64]{NRows: Index(len(rows)), NCols: 4}
		for r, cols := range rows {
			for _, j := range cols {
				coo.Row, coo.Col, coo.Val = append(coo.Row, Index(r)), append(coo.Col, j), append(coo.Val, float64(10*r+int(j)))
			}
		}
		return NewCSRFromCOO(coo, func(x, y float64) float64 { return x + y })
	}
	for _, tc := range []struct {
		name string
		rows []Index
		repl [][]Index
	}{
		{"no rows", nil, nil},
		{"all rows", []Index{0, 1, 2, 3, 4}, [][]Index{{1}, {}, {0, 1, 2, 3}, {2}, {3}}},
		{"first row grows", []Index{0}, [][]Index{{0, 1, 2, 3}}},
		{"first row shrinks", []Index{0}, [][]Index{{}}},
		{"last row grows", []Index{4}, [][]Index{{0, 1, 2, 3}}},
		{"last row shrinks", []Index{4}, [][]Index{{}}},
	} {
		sub := subOf(tc.repl)
		out := SpliceRows(a, tc.rows, sub)
		if err := out.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(out.Col) != cap(out.Col) || len(out.Val) != cap(out.Val) {
			t.Fatalf("%s: output not sized exactly", tc.name)
		}
		want := rowsOf(a)
		for r, i := range tc.rows {
			want[i] = tc.repl[r]
		}
		for i, cols := range want {
			gc, gv := out.Row(Index(i))
			if len(gc) != len(cols) {
				t.Fatalf("%s: row %d = %v, want %v", tc.name, i, gc, cols)
			}
			for k := range gc {
				if gc[k] != cols[k] {
					t.Fatalf("%s: row %d = %v, want %v", tc.name, i, gc, cols)
				}
				if r := slices.Index(tc.rows, Index(i)); r >= 0 && gv[k] != float64(10*r+int(cols[k])) {
					t.Fatalf("%s: row %d value %v not taken from sub", tc.name, i, gv[k])
				}
			}
		}
	}
}

// TestDeltaMergedRowViewIsClipped: appending to the zero-copy view
// MergedRow returns for a log-free row must reallocate, never overwrite
// the next base row.
func TestDeltaMergedRowViewIsClipped(t *testing.T) {
	d := deltaFromCOO(t, 3,
		[]Index{0, 0, 1, 1, 2}, []Index{0, 2, 1, 2, 0}, []float64{1, 2, 3, 4, 5})
	// A log on row 2 only, so rows 0 and 1 stay log-free views.
	if _, err := d.ApplyBatch([]Update[float64]{{Row: 2, Col: 1, Val: 6}}, nil); err != nil {
		t.Fatal(err)
	}
	baseCol := slices.Clone(d.Base().Col)
	baseVal := slices.Clone(d.Base().Val)
	cols, vals := d.MergedRow(0, nil, nil)
	if len(cols) != 2 || cap(cols) != 2 || cap(vals) != 2 {
		t.Fatalf("row 0 view len %d cap %d/%d, want 2 and 2/2", len(cols), cap(cols), cap(vals))
	}
	_ = append(cols, 3)
	_ = append(vals, 99)
	if !slices.Equal(d.Base().Col, baseCol) || !slices.Equal(d.Base().Val, baseVal) {
		t.Fatal("append to a merged-row view overwrote the base")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaSnapshotPatching: each snapshot patches the previous one, leaves
// earlier snapshots untouched, and matches the full merge that Validate
// compares it with.
func TestDeltaSnapshotPatching(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(11))
	d := deltaFromCOO(t, n, []Index{0, 5, 9}, []Index{3, 5, 1}, []float64{1, 2, 3})
	d.SetMergeThreshold(1e9)
	var held []*CSR[float64]
	var frozen []*CSR[float64]
	for step := 0; step < 30; step++ {
		batch := make([]Update[float64], 1+rng.Intn(3))
		for k := range batch {
			batch[k] = Update[float64]{Row: Index(rng.Intn(n)), Col: Index(rng.Intn(n)),
				Val: float64(step), Delete: rng.Intn(3) == 0}
		}
		if _, err := d.ApplyBatch(batch, nil); err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		cur := d.Current()
		held, frozen = append(held, cur), append(frozen, cur.Clone())
		if step%10 == 9 {
			d.Compact()
		}
	}
	for k := range held {
		if !Equal(held[k], frozen[k], func(x, y float64) bool { return x == y }) {
			t.Fatalf("snapshot %d changed after later batches", k)
		}
	}
}

// TestRecycledSnapshot: the private snapshot matches Current's content
// after every batch and across compactions, stays intact through the next
// patching call, reuses the arrays of the snapshot before last once both
// buffers exist, and never shares storage with a Current snapshot or the
// base — with values, and as a pattern alone (Val nil), after which a
// call with values must build them afresh.
func TestRecycledSnapshot(t *testing.T) {
	for _, values := range []bool{true, false} {
		recycledSnapshot(t, values)
	}
}

func recycledSnapshot(t *testing.T, values bool) {
	const n = 24
	rng := rand.New(rand.NewSource(5))
	d := deltaFromCOO(t, n, []Index{0, 5, 9, 17}, []Index{3, 5, 1, 2}, []float64{1, 2, 3, 4})
	d.SetMergeThreshold(1e9)
	if RecycledSnapshot(d, values) != d.Base() {
		t.Fatal("with no pending logs the private snapshot should be the base")
	}
	eq := func(x, y float64) bool { return x == y }
	// same compares x with Current's y, by pattern alone when x has no
	// values.
	same := func(x, y *CSR[float64]) bool {
		if x.Val == nil && len(x.Col) > 0 {
			return slices.Equal(x.RowPtr, y.RowPtr) && slices.Equal(x.Col, y.Col)
		}
		return Equal(x, y, eq)
	}
	var prev, prevFrozen *CSR[float64]
	var owned [][]Index // the Col arrays of the private snapshots, in order
	var batch []Update[float64]
	for step := 0; step < 40; step++ {
		// Even steps insert three random entries (or overwrite), odd steps
		// delete them again, so the size stays bounded and the arrays
		// stop growing.
		if step%2 == 0 {
			batch = batch[:0]
			for range 3 {
				batch = append(batch, Update[float64]{Row: Index(rng.Intn(n)), Col: Index(rng.Intn(n)), Val: float64(step)})
			}
		} else {
			for k := range batch {
				batch[k].Delete = true
			}
		}
		if _, err := d.ApplyBatch(batch, nil); err != nil {
			t.Fatal(err)
		}
		if step%13 == 12 {
			d.Compact()
		}
		got := RecycledSnapshot(d, values)
		if prev != nil && !same(prev, prevFrozen) {
			t.Fatalf("values=%v step %d: the previous private snapshot changed before the second later patch", values, step)
		}
		if again := RecycledSnapshot(d, values); again != got {
			t.Fatalf("values=%v step %d: a second call without a batch patched again", values, step)
		}
		cur := d.Current()
		if !same(got, cur) {
			t.Fatalf("values=%v step %d: private snapshot differs from Current", values, step)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("values=%v step %d: %v", values, step, err)
		}
		if got == d.Base() {
			prev = nil
			continue
		}
		if len(got.Col) == 0 {
			t.Fatalf("values=%v step %d: the fixture emptied the matrix", values, step)
		}
		for _, other := range []*CSR[float64]{cur, d.Base()} {
			if len(other.Col) > 0 && &got.Col[0] == &other.Col[0] {
				t.Fatalf("values=%v step %d: private snapshot shares storage with a public one", values, step)
			}
		}
		owned = append(owned, got.Col)
		prev, prevFrozen = got, got.Clone()
	}
	reused := 0
	for k := 2; k < len(owned); k++ {
		if &owned[k][0] == &owned[k-2][0] {
			reused++
		}
	}
	if reused < len(owned)/2 {
		t.Fatalf("values=%v: only %d of %d private snapshots reused the arrays of the one before last", values, reused, len(owned)-2)
	}
	if _, err := d.ApplyBatch([]Update[float64]{{Row: 1, Col: 1, Val: 7}}, nil); err != nil {
		t.Fatal(err)
	}
	if !values && RecycledSnapshot(d, false).Val != nil {
		t.Fatal("a pattern-only private snapshot carries values")
	}
	if got := RecycledSnapshot(d, true); !Equal(got, d.Current(), eq) {
		t.Fatalf("values=%v: a call with values after the stream differs from Current", values)
	}
}

func TestNewDeltaCSRRejectsUnsortedBase(t *testing.T) {
	base := &CSR[float64]{NRows: 1, NCols: 3,
		RowPtr: []Index{0, 2}, Col: []Index{2, 0}, Val: []float64{1, 2}}
	if _, err := NewDeltaCSR(base); err == nil {
		t.Fatal("unsorted base accepted")
	}
	base.SortRows()
	if _, err := NewDeltaCSR(base); err != nil {
		t.Fatal(err)
	}
}
