package planner

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
)

// pairCount counts the triangles of g on c's count operand, as the Auto
// engine does, and returns the count with the operand.
func pairCount(t *testing.T, c *Cache, g *matrix.CSR[float64], workers int) (int64, *matrix.PairOperand) {
	t.Helper()
	op := c.PairOperand(g.Pattern(), workers)
	o := core.Options{Threads: workers, RowCosts: core.NewRowCosts(op.CostPrefix, op.MaxRowCost)}
	n, err := core.MaskedPairCount(op.Tail, op.W, op.Tail, op.Bits, op.WalkEnd, op.Walks, o)
	if err != nil {
		t.Fatal(err)
	}
	return n, op
}

// samePairOperand reports whether two count operands have the same hubs,
// bits, patterns, walk ends, costs and flops.
func samePairOperand(x, y *matrix.PairOperand) bool {
	same := func(p, q *matrix.Pattern) bool {
		return p.NRows == q.NRows && p.NCols == q.NCols && slices.Equal(p.RowPtr, q.RowPtr) && slices.Equal(p.Col, q.Col)
	}
	return x.Hubs == y.Hubs && slices.Equal(x.Bits, y.Bits) && same(x.Tail, y.Tail) && same(x.W, y.W) &&
		slices.Equal(x.WalkEnd, y.WalkEnd) && slices.Equal(x.CostPrefix, y.CostPrefix) && x.MaxRowCost == y.MaxRowCost && x.Flops == y.Flops
}

// triangles is the count of g over X = DegreeTril(g) itself, the
// reference the count operand must reproduce.
func triangles(t *testing.T, g *matrix.CSR[float64]) int64 {
	t.Helper()
	x := matrix.DegreeTril(g, 1)
	n, err := core.MaskedPairCount(x, x, x, nil, x.RowPtr[1:], nil, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPairOperandKept: a graph counted once keeps no operand; its second
// count builds one and keeps it, equal to a cold one, with its tails'
// Col holding nnz(Tail) slots and its bytes in RetainedBytes; every later count
// reuses that very operand. A Clone, with its own arrays, builds its own
// on its own second count. The count path makes no plan entry, hit or
// miss. An operand without bits, whose tail is X, is kept with X's Col
// trimmed to nnz(X).
func TestPairOperandKept(t *testing.T) {
	g := grgen.RMAT(10, 16, 3)
	want := triangles(t, g)
	cold := matrix.NewPairOperand(g.Pattern(), 1)
	c := NewCache()
	check := func(label string, g *matrix.CSR[float64], wantBuilds, wantReuses int64, kept bool) *matrix.PairOperand {
		t.Helper()
		n, op := pairCount(t, c, g, 2)
		if n != want || !samePairOperand(op, cold) {
			t.Fatalf("%s: counted %d on an operand equal to a cold one: %v; want %d", label, n, samePairOperand(op, cold), want)
		}
		st := c.Stats()
		if st.CountOperandBuilds != wantBuilds || st.CountOperandReuses != wantReuses || (st.RetainedBytes > 0) != kept {
			t.Fatalf("%s: %d operands built, %d reused, %d bytes retained; want %d, %d and retained %v",
				label, st.CountOperandBuilds, st.CountOperandReuses, st.RetainedBytes, wantBuilds, wantReuses, kept)
		}
		if st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
			t.Fatalf("%s: the count path touched the plans: %+v", label, st)
		}
		return op
	}
	check("first count", g, 0, 0, false)
	if e := c.memo.lookup(patternOf(g.RowPtr, g.Col)); e == nil || !e.counted || e.pair != nil {
		t.Fatalf("first count: memo entry %+v, want one marked counted with no operand", e)
	}
	kept := check("second count", g, 1, 0, true)
	if kept.Hubs == 0 || cap(kept.Tail.Col) != kept.Tail.NNZ() {
		t.Fatalf("kept operand has %d hubs and holds %d tail Col slots for %d entries; want bits and no spare slots",
			kept.Hubs, cap(kept.Tail.Col), kept.Tail.NNZ())
	}
	if got := c.Stats().RetainedBytes; got != kept.Bytes() {
		t.Fatalf("%d bytes retained, want the kept operand's %d", got, kept.Bytes())
	}
	for i := 0; i < 3; i++ {
		if op := check("later count", g, 1, int64(i+1), true); op != kept {
			t.Fatal("a later count did not reuse the kept operand")
		}
	}
	h := g.Clone()
	check("clone's first count", h, 1, 3, true)
	if op := check("clone's second count", h, 2, 3, true); op == kept {
		t.Fatal("a Clone reused the original's operand")
	}
	// Without bits the tail is X itself, whose Col the kept operand trims.
	er := grgen.ErdosRenyiSym(512, 8, 3)
	pairCount(t, c, er, 2)
	if n, op := pairCount(t, c, er, 2); n != triangles(t, er) || op.Hubs != 0 || cap(op.Tail.Col) != op.Tail.NNZ() {
		t.Fatalf("Erdős–Rényi graph: counted %d, want %d, on an operand with %d hubs holding %d tail Col slots for %d entries; want no bits and no spare slots",
			n, triangles(t, er), op.Hubs, cap(op.Tail.Col), op.Tail.NNZ())
	}
	runtime.KeepAlive(g)
	runtime.KeepAlive(h)
	runtime.KeepAlive(er)
}

// TestPairOperandDiesWithGraph: the operand a repeatedly counted graph
// keeps lives exactly as long as the graph's arrays. Once they are dropped
// and collected, the memo's entry and bytes are gone.
func TestPairOperandDiesWithGraph(t *testing.T) {
	c := NewCache()
	func() {
		g := grgen.RMAT(9, 8, 4)
		want := triangles(t, g)
		for i := 0; i < 3; i++ {
			if n, _ := pairCount(t, c, g, 2); n != want {
				t.Fatalf("count %d: %d triangles, want %d", i, n, want)
			}
		}
	}()
	if st := c.Stats(); st.CountOperandBuilds != 1 || st.CountOperandReuses != 1 || st.RetainedBytes == 0 {
		t.Fatalf("repeated counts: %d operands built, %d reused, %d bytes retained; want 1, 1 and some",
			st.CountOperandBuilds, st.CountOperandReuses, st.RetainedBytes)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		if c.memo.m.Len() == 0 && c.Stats().RetainedBytes == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a count operand outlived its graph: %d entries, %d bytes retained", c.memo.m.Len(), c.Stats().RetainedBytes)
		}
	}
}

// TestPairOperandConcurrent: concurrent counts of one graph, from its
// first count on, all count its triangles, while clones of it are counted
// until they keep an operand, then dropped and collected, so the memo's
// cleanups run during the counts. Run under -race, it checks that the
// memo publishes and removes count operands safely.
func TestPairOperandConcurrent(t *testing.T) {
	g := grgen.RMAT(10, 8, 5)
	want := triangles(t, g)
	c := NewCache()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			h := g.Clone()
			for j := 0; j < 2; j++ {
				if n, _ := pairCount(t, c, h, 1); n != want {
					t.Errorf("clone %d count %d: %d triangles, want %d", i, j, n, want)
					return
				}
			}
			runtime.GC()
		}
	}()
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if n, _ := pairCount(t, c, g, 1+(w+i)%2); n != want {
					t.Errorf("worker %d count %d: %d triangles, want %d", w, i, n, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.CountOperandReuses == 0 {
		t.Fatalf("60 counts of one graph reused no operand: %+v", st)
	}
}

// TestPairOperandBounded: an operand over the memo's bound is built by
// every repeated count and never kept, and the counts stay exact.
func TestPairOperandBounded(t *testing.T) {
	g := grgen.RMAT(8, 8, 6)
	want := triangles(t, g)
	c := NewCache()
	c.memo.maxBytes = 1
	for i := 0; i < 4; i++ {
		if n, _ := pairCount(t, c, g, 2); n != want {
			t.Fatalf("count %d: %d triangles, want %d", i, n, want)
		}
	}
	if st := c.Stats(); st.CountOperandBuilds != 3 || st.CountOperandReuses != 0 || st.RetainedBytes != 0 {
		t.Fatalf("over-bound operand: %d built, %d reused, %d bytes retained; want 3, 0 and 0",
			st.CountOperandBuilds, st.CountOperandReuses, st.RetainedBytes)
	}
}
