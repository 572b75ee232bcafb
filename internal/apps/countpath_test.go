package apps

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/planner"
)

// tcCase is one graph of the count-path corpus. exact is
// TriangleCountExact of the graph, or -1 where that reference does not
// apply (non-symmetric adjacency).
type tcCase struct {
	name  string
	g     *matrix.CSR[float64]
	exact int64
}

// emptyGraph returns the n-vertex graph with no edges.
func emptyGraph(n Index) *matrix.CSR[float64] {
	return matrix.NewCSRFromCOO(&matrix.COO[float64]{NRows: n, NCols: n}, nil)
}

// reversedRows returns a copy of g with every row's entries in descending
// column order.
func reversedRows(g *matrix.CSR[float64]) *matrix.CSR[float64] {
	out := g.Clone()
	for i := Index(0); i < out.NRows; i++ {
		lo, hi := out.RowPtr[i], out.RowPtr[i+1]
		slices.Reverse(out.Col[lo:hi])
		slices.Reverse(out.Val[lo:hi])
	}
	return out
}

// countPathCorpus covers skewed, uniform, dense, degenerate,
// non-symmetric and unsorted-row graphs.
func countPathCorpus() []tcCase {
	sym := func(name string, g *matrix.CSR[float64]) tcCase {
		return tcCase{name, g, TriangleCountExact(g)}
	}
	unsorted := grgen.RMAT(8, 8, 6)
	return []tcCase{
		sym("rmat", grgen.RMAT(8, 8, 5)),
		sym("er", grgen.ErdosRenyiSym(200, 10, 77)),
		sym("K10", completeGraph(10)),
		sym("star", starGraph(16)),
		sym("path", pathGraph(10)),
		sym("empty", emptyGraph(0)),
		sym("edgeless", emptyGraph(20)),
		{"non-symmetric", grgen.RMATDirected(8, 8, 4), -1},
		{"unsorted-rows", reversedRows(unsorted), TriangleCountExact(unsorted)},
	}
}

// TestTriangleCountCountPath: the Auto engine counts without building the
// product, yet its count equals int64(Sum(C)) from every pinned variant and
// both baselines, and TriangleCountExact on symmetric graphs, under every
// schedule at one and two threads: the pinned variants' products run on no
// cost profile and an unskewed one (equal-row chunks) and on a skewed one
// (equal-cost spans). Auto counts each graph three times on one session:
// the first count, the second, which keeps the count operand, and a third
// that reuses it. Flops equal flops(L·L) for every engine and count, and
// the count path makes no plan entry, hit or miss. A cache model under
// which MSA would not dominate the plan does not change the count, and a
// cancelled context returns its error.
func TestTriangleCountCountPath(t *testing.T) {
	for _, tc := range countPathCorpus() {
		l := matrix.RelabelTril(tc.g, 1)
		wantFlops := core.Flops(l, l, 0)
		// The profile of the pinned engines' product L .* (L·L).
		var profiles []*core.RowCosts
		if costs := core.ComputeRowCosts(l.Pattern(), l.Pattern(), l.Pattern(), 1); costs != nil {
			flat, skewed := *costs, *costs
			flat.Skewed, skewed.Skewed = false, true
			profiles = []*core.RowCosts{nil, &flat, &skewed}
		} else {
			profiles = []*core.RowCosts{nil} // degenerate graphs have no profile
		}
		ref, err := TriangleCount(tc.g, NewSession(core.Options{Threads: 1}).EngineSSSaxpy())
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		want := ref.Triangles
		if tc.exact >= 0 && want != tc.exact {
			t.Fatalf("%s: SS:SAXPY counts %d, TriangleCountExact %d", tc.name, want, tc.exact)
		}
		check := func(label string, eng Engine) {
			t.Helper()
			got, err := TriangleCount(tc.g, eng)
			if err != nil {
				t.Fatalf("%s/%s/%s: %v", tc.name, label, eng.Name, err)
			}
			if got.Triangles != want || got.Flops != wantFlops {
				t.Errorf("%s/%s/%s: triangles %d flops %d, want %d and %d",
					tc.name, label, eng.Name, got.Triangles, got.Flops, want, wantFlops)
			}
		}
		for pi, rc := range profiles {
			for _, threads := range []int{1, 2} {
				label := fmt.Sprintf("profile%d/%dt", pi, threads)
				s := NewSession(core.Options{Threads: threads, RowCosts: rc})
				for range 3 {
					check(label, s.EngineAuto())
				}
				st := s.Cache.Stats()
				if st.Entries != 0 || st.Misses != 0 || st.Hits != 0 {
					t.Errorf("%s/%s: count path touched the plan cache: %+v", tc.name, label, st)
				}
				if st.CountOperandBuilds > 1 || st.CountOperandReuses != st.CountOperandBuilds {
					t.Errorf("%s/%s: three counts built %d count operands and reused %d; want at most one, each reused once",
						tc.name, label, st.CountOperandBuilds, st.CountOperandReuses)
				}
				for _, eng := range s.AllEngines() {
					if eng.PairCount != nil {
						t.Fatalf("%s: only the Auto engine may count without the product", eng.Name)
					}
					check(label, eng)
				}
			}
		}

		// Scatter and hash flops priced far above a heap merge: the
		// session's model would plan no MSA, yet the count is the same.
		mdl := planner.DefaultModel()
		mdl.PushUnit, mdl.HashUnit = 1000, 1000
		for _, threads := range []int{1, 2} {
			s := NewSession(core.Options{Threads: threads})
			s.Cache.SetModel(mdl)
			check("non-MSA model", s.EngineAuto())
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, s := range []*Session{
			NewSession(core.Options{Threads: 2, Ctx: ctx}),
			func() *Session {
				s := NewSession(core.Options{Threads: 2, Ctx: ctx})
				s.Cache.SetModel(mdl)
				return s
			}(),
		} {
			if _, err := TriangleCount(tc.g, s.EngineAuto()); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: cancelled count returned %v, want context.Canceled", tc.name, err)
			}
		}
	}
}

// TestTriangleCountWalkList: on an R-MAT graph of 4,096 vertices, eight
// times the 512 hubs, the count operand carries hub bitmaps and a
// non-empty Walks list, which the small graphs of the other count tests
// never do. At one and two workers, six Auto counts on one session, on
// the AVX-512 AND where the CPU has it and on the portable one in turn,
// equal SS:SAXPY's and TriangleCountExact: the first count's operand is
// built and dropped, the second's kept and the others' reused.
func TestTriangleCountWalkList(t *testing.T) {
	g := grgen.RMAT(12, 16, 1)
	if op := matrix.NewPairOperand(g.Pattern(), 2); op.Hubs == 0 || op.Walks == nil || op.Walks.NNZ() == 0 {
		t.Fatalf("premise: the operand carries %d hubs and Walks %v; want bits and a non-empty list", op.Hubs, op.Walks != nil)
	}
	want := TriangleCountExact(g)
	ref, err := TriangleCount(g, NewSession(core.Options{Threads: 1}).EngineSSSaxpy())
	if err != nil || ref.Triangles != want {
		t.Fatalf("SS:SAXPY counts %d (%v), TriangleCountExact %d", ref.Triangles, err, want)
	}
	for _, threads := range []int{1, 2} {
		auto := NewSession(core.Options{Threads: threads}).EngineAuto()
		for i := range 3 {
			got, err := TriangleCount(g, auto)
			if err != nil {
				t.Fatal(err)
			}
			var portable TCResult
			withPortablePairAnd(func() { portable, err = TriangleCount(g, auto) })
			if err != nil {
				t.Fatal(err)
			}
			if got.Triangles != want || portable.Triangles != want {
				t.Fatalf("%d workers, counts %d and %d: Auto %d (portable AND %d), want %d", threads, 2*i+1, 2*i+2, got.Triangles, portable.Triangles, want)
			}
		}
	}
}

// fuzzGraph builds a symmetric graph without self-loops on size%33
// vertices from the byte pairs of data.
func fuzzGraph(size uint8, data []byte) *matrix.CSR[float64] {
	n := Index(size % 33)
	c := &matrix.COO[float64]{NRows: n, NCols: n}
	if n > 0 {
		for k := 0; k+1 < len(data); k += 2 {
			u, v := Index(data[k])%n, Index(data[k+1])%n
			if u != v {
				c.Row = append(c.Row, u, v)
				c.Col = append(c.Col, v, u)
				c.Val = append(c.Val, 1, 1)
			}
		}
	}
	return matrix.NewCSRFromCOO(c, func(a, _ float64) float64 { return a })
}

// FuzzTriangleCount builds a small symmetric graph without self-loops from
// arbitrary vertex pairs (rows optionally reversed, so they arrive
// unsorted) and requires the Auto count path, on the AVX-512 AND where
// the CPU has it and on the portable one, the pinned MSA-1P product's
// sum and TriangleCountExact to agree. Every vertex of these graphs is a
// hub, so the count path counts on hub bitmaps alone whenever the build
// keeps them (as for the K6 seed), and on X otherwise.
func FuzzTriangleCount(f *testing.F) {
	f.Add(uint8(4), false, []byte{0, 1, 1, 2, 2, 0, 2, 3})
	f.Add(uint8(0), false, []byte{})
	f.Add(uint8(1), true, []byte{0, 0})
	f.Add(uint8(12), true, []byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4, 5, 5, 6, 6, 4, 7, 8})
	// K6, whose count operand carries hub bitmaps.
	f.Add(uint8(6), false, []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 2, 1, 3, 1, 4, 1, 5, 2, 3, 2, 4, 2, 5, 3, 4, 3, 5, 4, 5})
	auto := NewSession(core.Options{Threads: 2}).EngineAuto()
	msa := NewSession(core.Options{Threads: 2}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase})
	f.Fuzz(func(t *testing.T, size uint8, reverse bool, data []byte) {
		g := fuzzGraph(size, data)
		want := TriangleCountExact(g)
		if reverse {
			g = reversedRows(g)
		}
		got, err := TriangleCount(g, auto)
		if err != nil {
			t.Fatal(err)
		}
		var portable TCResult
		withPortablePairAnd(func() { portable, err = TriangleCount(g, auto) })
		if err != nil {
			t.Fatal(err)
		}
		pinned, err := TriangleCount(g, msa)
		if err != nil {
			t.Fatal(err)
		}
		if got.Triangles != want || portable.Triangles != want || pinned.Triangles != want || got.Flops != pinned.Flops {
			t.Fatalf("Auto %d (flops %d, portable AND %d), MSA-1P %d (flops %d), exact %d",
				got.Triangles, got.Flops, portable.Triangles, pinned.Triangles, pinned.Flops, want)
		}
	})
}

// FuzzKTruss builds FuzzTriangleCount's graphs and requires the k-truss
// from the Auto engine, the pinned MSA-1P engine and the SS:SAXPY baseline
// to equal KTrussExact's, for k from 3 to 6.
func FuzzKTruss(f *testing.F) {
	f.Add(uint8(4), false, uint8(0), []byte{0, 1, 1, 2, 2, 0, 2, 3})
	f.Add(uint8(0), false, uint8(1), []byte{})
	f.Add(uint8(1), true, uint8(2), []byte{0, 0})
	f.Add(uint8(12), true, uint8(1), []byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4, 5, 5, 6, 6, 4, 7, 8})
	f.Add(uint8(8), false, uint8(3), []byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4, 5, 6})
	engines := []Engine{
		NewSession(core.Options{Threads: 2}).EngineAuto(),
		NewSession(core.Options{Threads: 2}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase}),
		NewSession(core.Options{Threads: 2}).EngineSSSaxpy(),
	}
	f.Fuzz(func(t *testing.T, size uint8, reverse bool, kk uint8, data []byte) {
		g := fuzzGraph(size, data)
		k := 3 + int(kk%4)
		want := KTrussExact(g, k)
		if reverse {
			g = reversedRows(g)
		}
		for _, eng := range engines {
			got, _, err := KTruss(g, k, eng)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.EqualPatterns(sortedPattern(got), want.Pattern()) {
				t.Fatalf("k=%d %s: %d edge slots, exact %d, or other edges", k, eng.Name, got.NNZ(), want.NNZ())
			}
		}
	})
}

// sortedPattern returns the pattern of g with every row sorted.
func sortedPattern(g *matrix.CSR[float64]) *matrix.Pattern {
	p := g.Clone().Pattern()
	for i := Index(0); i < p.NRows; i++ {
		slices.Sort(p.Col[p.RowPtr[i]:p.RowPtr[i+1]])
	}
	return p
}
