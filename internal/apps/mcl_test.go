package apps

import (
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// twoCliques builds two k-cliques joined by a single bridge edge — the
// canonical MCL test case: the algorithm must split it into two clusters.
func twoCliques(k Index) *matrix.CSR[float64] {
	n := 2 * k
	coo := &matrix.COO[float64]{NRows: n, NCols: n}
	add := func(u, v Index) {
		coo.Row = append(coo.Row, u, v)
		coo.Col = append(coo.Col, v, u)
		coo.Val = append(coo.Val, 1, 1)
	}
	for u := Index(0); u < k; u++ {
		for v := u + 1; v < k; v++ {
			add(u, v)
			add(u+k, v+k)
		}
	}
	add(0, k) // bridge
	return matrix.NewCSRFromCOO(coo, func(a, b float64) float64 { return 1 })
}

func mclEngine() Engine {
	return NewSession(core.Options{Threads: 2}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase})
}

func TestMCLTwoCliques(t *testing.T) {
	g := twoCliques(6)
	for _, masked := range []bool{false, true} {
		res, err := MCL(g, MCLOptions{MaskedExpansion: masked}, mclEngine())
		if err != nil {
			t.Fatal(err)
		}
		if res.Clusters != 2 {
			t.Fatalf("masked=%v: clusters = %d, want 2", masked, res.Clusters)
		}
		// All of clique 1 together, all of clique 2 together.
		for v := Index(1); v < 6; v++ {
			if res.Cluster[v] != res.Cluster[0] {
				t.Fatalf("masked=%v: vertex %d split from clique 1", masked, v)
			}
			if res.Cluster[v+6] != res.Cluster[6] {
				t.Fatalf("masked=%v: vertex %d split from clique 2", masked, v+6)
			}
		}
		if res.Cluster[0] == res.Cluster[6] {
			t.Fatalf("masked=%v: cliques merged", masked)
		}
		if res.Iterations < 2 {
			t.Fatalf("masked=%v: too few iterations: %d", masked, res.Iterations)
		}
	}
}

func TestMCLDisconnectedComponents(t *testing.T) {
	// Two disjoint triangles: exactly two clusters, no ambiguity.
	coo := &matrix.COO[float64]{NRows: 6, NCols: 6}
	add := func(u, v Index) {
		coo.Row = append(coo.Row, u, v)
		coo.Col = append(coo.Col, v, u)
		coo.Val = append(coo.Val, 1, 1)
	}
	add(0, 1)
	add(1, 2)
	add(0, 2)
	add(3, 4)
	add(4, 5)
	add(3, 5)
	g := matrix.NewCSRFromCOO(coo, func(a, b float64) float64 { return 1 })
	res, err := MCL(g, MCLOptions{}, mclEngine())
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 2 {
		t.Fatalf("clusters = %d, want 2", res.Clusters)
	}
}

func TestMCLDefaultsAndErrors(t *testing.T) {
	rect := matrix.NewEmptyCSR[float64](3, 4)
	if _, err := MCL(rect, MCLOptions{}, mclEngine()); err == nil {
		t.Fatal("rectangular input must fail")
	}
	// Degenerate options are coerced to sane defaults.
	g := twoCliques(4)
	res, err := MCL(g, MCLOptions{Inflation: 0.5, PruneBelow: -1, MaxIter: -1}, mclEngine())
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters < 1 {
		t.Fatal("no clusters")
	}
	// Empty graph: every vertex is its own attractor-less singleton.
	empty := matrix.NewEmptyCSR[float64](4, 4)
	res, err = MCL(empty, MCLOptions{}, mclEngine())
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters != 4 {
		t.Fatalf("empty graph clusters = %d, want 4 singletons", res.Clusters)
	}
}
