package apps

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// KTrussResult reports a k-truss run.
type KTrussResult struct {
	// Edges is the number of directed edge slots remaining (2× undirected
	// edges, symmetric storage).
	Edges int
	// Iterations is the number of masked SpGEMM + prune rounds until the
	// fixed point.
	Iterations int
	// Flops is the sum of flops(A·A) over all masked SpGEMM calls; the
	// paper reports Σflops / Σtime for this benchmark (§8.3).
	Flops int64
	// MaskedTime is the total time spent in masked SpGEMM calls.
	MaskedTime time.Duration
	// TotalTime includes support thresholding and rebuild.
	TotalTime time.Duration
}

// GFLOPS returns the paper's §8.3 metric: 2·Σflops over all masked SpGEMM
// operations divided by the total time to execute them.
func (r KTrussResult) GFLOPS() float64 {
	if r.MaskedTime <= 0 {
		return 0
	}
	return 2 * float64(r.Flops) / r.MaskedTime.Seconds() / 1e9
}

// KTruss computes the k-truss of the undirected graph g (symmetric
// adjacency, no self-loops): the maximal subgraph in which every edge is
// supported by at least k-2 triangles. Each round computes edge supports
// with one masked SpGEMM, S = A .* (A·A) on the plus-pair semiring, then
// deletes under-supported edges; it stops when no edge is deleted (§8.3
// uses k=5).
func KTruss(g *matrix.CSR[float64], k int, eng Engine) (*matrix.CSR[float64], KTrussResult, error) {
	if k < 3 {
		return nil, KTrussResult{}, fmt.Errorf("apps: k-truss requires k >= 3, got %d", k)
	}
	start := time.Now()
	support := float64(k - 2)
	a := g
	var res KTrussResult
	for {
		res.Iterations++
		res.Flops += core.Flops(a, a, 0)
		t0 := time.Now()
		s, err := eng.Mult(a.Pattern(), a, a, semiring.PlusPairF(), false)
		res.MaskedTime += time.Since(t0)
		if err != nil {
			return nil, res, fmt.Errorf("apps: k-truss with %s: %w", eng.Name, err)
		}
		// Keep edges with enough support. Edges absent from S have zero
		// support (no wedge closed) and are dropped implicitly.
		next := matrix.FilterEntries(s, func(_, _ Index, v float64) bool { return v >= support })
		// Edge values reset to 1 for the next multiplication round.
		for i := range next.Val {
			next.Val[i] = 1
		}
		if next.NNZ() == a.NNZ() {
			res.Edges = next.NNZ()
			res.TotalTime = time.Since(start)
			return next, res, nil
		}
		a = next
		if a.NNZ() == 0 {
			res.Edges = 0
			res.TotalTime = time.Since(start)
			return a, res, nil
		}
	}
}

// KTrussExact is a brute-force reference used by tests: iteratively counts
// per-edge triangle support by adjacency-list intersection and prunes.
func KTrussExact(g *matrix.CSR[float64], k int) *matrix.CSR[float64] {
	support := k - 2
	adj := make([]map[Index]bool, g.NRows)
	for i := Index(0); i < g.NRows; i++ {
		adj[i] = make(map[Index]bool)
		cols, _ := g.Row(i)
		for _, j := range cols {
			adj[i][j] = true
		}
	}
	for changed := true; changed; {
		changed = false
		type edge struct{ u, v Index }
		var drop []edge
		for u := Index(0); u < g.NRows; u++ {
			for v := range adj[u] {
				if v < u {
					continue
				}
				cnt := 0
				for w := range adj[u] {
					if w != v && adj[v][w] {
						cnt++
					}
				}
				if cnt < support {
					drop = append(drop, edge{u, v})
				}
			}
		}
		for _, e := range drop {
			delete(adj[e.u], e.v)
			delete(adj[e.v], e.u)
			changed = true
		}
	}
	coo := &matrix.COO[float64]{NRows: g.NRows, NCols: g.NCols}
	for u := Index(0); u < g.NRows; u++ {
		for v := range adj[u] {
			coo.Row = append(coo.Row, u)
			coo.Col = append(coo.Col, v)
			coo.Val = append(coo.Val, 1)
		}
	}
	return matrix.NewCSRFromCOO(coo, func(a, b float64) float64 { return 1 })
}
