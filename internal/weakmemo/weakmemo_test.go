package weakmemo

import (
	"runtime"
	"testing"
	"time"
)

func pattern(n int) (rowPtr, col []int32) {
	rowPtr, col = make([]int32, n+1), make([]int32, n)
	for i := range col {
		rowPtr[i+1], col[i] = int32(i+1), int32(i)
	}
	return rowPtr, col
}

// waitEmpty collects garbage until m keeps no entry. Cleanups run on their
// own goroutine after a collection, so the wait is bounded in time.
func waitEmpty[V any](t *testing.T, m *Memo[V]) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); m.Len() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d entries outlived their arrays (%d bytes)", m.Len(), m.Bytes())
		}
		runtime.GC()
	}
}

// TestExactIdentity: a value serves only the very arrays it was stored
// for: not a copy of equal content, not a prefix of the same arrays, and
// not the pattern of a matrix.
func TestExactIdentity(t *testing.T) {
	m := New[int](nil)
	rowPtr, col := pattern(8)
	val := make([]float64, len(col))
	m.Update(Matrix(rowPtr, col, val), func(v *int) { *v = 7 })
	if v := m.Lookup(Matrix(rowPtr, col, val)); v == nil || *v != 7 {
		t.Fatalf("the stored arrays look up %v, want 7", v)
	}
	for what, o := range map[string]Operand{
		"a copy of Val":   Matrix(rowPtr, col, append([]float64(nil), val...)),
		"a copy of Col":   Matrix(rowPtr, append([]int32(nil), col...), val),
		"a prefix of Val": Matrix(rowPtr, col, val[:len(val)-1]),
		"the pattern":     Pattern(rowPtr, col),
	} {
		if m.Lookup(o) != nil {
			t.Errorf("%s found the matrix's value", what)
		}
	}
	m.Update(Matrix(rowPtr, col, val), func(v *int) { *v++ })
	if v := m.Lookup(Matrix(rowPtr, col, val)); v == nil || *v != 8 || m.Len() != 1 {
		t.Fatalf("after an update: value %v, %d entries; want 8 in one entry", v, m.Len())
	}
}

// TestValueDiesWithVal: a matrix's value dies with its Val array although
// its pattern lives on, and a pattern's with its Col array. Bytes follows.
func TestValueDiesWithVal(t *testing.T) {
	m := New(func(v *int64) int64 { return *v })
	rowPtr, col := pattern(64)
	vals := make([][]float64, 4)
	for i := range vals {
		vals[i] = make([]float64, len(col))
		m.Update(Matrix(rowPtr, col, vals[i]), func(v *int64) { *v = 100 })
	}
	if m.Len() != 4 || m.Bytes() != 400 {
		t.Fatalf("4 values: %d entries, %d bytes; want 4 and 400", m.Len(), m.Bytes())
	}
	vals = nil
	waitEmpty(t, m)
	if m.Bytes() != 0 {
		t.Fatalf("%d bytes after every entry died", m.Bytes())
	}
	m.Update(Pattern(rowPtr, col), func(v *int64) { *v = 5 })
	if m.Len() != 1 || m.Bytes() != 5 {
		t.Fatalf("a pattern: %d entries, %d bytes; want 1 and 5", m.Len(), m.Bytes())
	}
	rowPtr, col = nil, nil
	waitEmpty(t, m)
}

// staticRowPtr and staticCol are package-level data, outside the Go heap.
var (
	staticRowPtr = []int32{0, 2, 4, 6, 8}
	staticCol    = []int32{0, 1, 1, 2, 2, 3, 0, 3}
)

// TestNothingKeptWithoutCleanup: no value is kept for arrays whose cleanup
// may never run (under 16 bytes) or that weak pointers cannot name.
func TestNothingKeptWithoutCleanup(t *testing.T) {
	m := New[bool](nil)
	set := func(v *bool) { *v = true }
	rowPtr, col := pattern(8)
	for what, o := range map[string]Operand{
		"a 12-byte Col":        Pattern([]int32{0, 2, 3}, []int32{0, 1, 1}),
		"an 8-byte Val":        Matrix(rowPtr, col, []float64{1}),
		"package-level data":   Pattern(staticRowPtr, staticCol),
		"an empty pattern":     Pattern(nil, nil),
		"a matrix with no Val": Matrix(rowPtr, col, []float64(nil)),
	} {
		m.Update(o, set)
		if m.Lookup(o) != nil || m.Len() != 0 {
			t.Errorf("kept a value for %s", what)
		}
	}
}
