package apps

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// TCResult reports a triangle counting run.
type TCResult struct {
	// Triangles is the number of triangles in the graph.
	Triangles int64
	// MaskedTime is the time spent inside the masked SpGEMM call only —
	// what the paper reports for this benchmark (§8.2).
	MaskedTime time.Duration
	// TotalTime includes relabeling and the reduction.
	TotalTime time.Duration
	// Flops is flops(L·L), the work metric for GFLOPS plots (Fig. 10).
	Flops int64
}

// GFLOPS returns the paper's performance metric for Fig. 10: 2·flops /
// masked-SpGEMM-time, in 1e9 ops/s.
func (r TCResult) GFLOPS() float64 {
	if r.MaskedTime <= 0 {
		return 0
	}
	return 2 * float64(r.Flops) / r.MaskedTime.Seconds() / 1e9
}

// TriangleCount counts triangles in the undirected graph g (symmetric
// adjacency, no self-loops) via sum(L .* (L·L)) where L is the strictly
// lower triangular part after relabeling vertices in non-increasing degree
// order (§8.2), built by matrix.RelabelTril. For a non-symmetric g the
// count is over L = Tril(P·g·Pᵀ): only the entries that land strictly below
// the diagonal after relabeling count. The masked SpGEMM runs on the
// plus-pair semiring; eng supplies the implementation under test.
func TriangleCount(g *matrix.CSR[float64], eng Engine) (TCResult, error) {
	start := time.Now()
	l := matrix.RelabelTril(g)
	res := TCResult{Flops: core.Flops(l, l, 0)}
	t0 := time.Now()
	c, err := eng.Mult(l.Pattern(), l, l, semiring.PlusPairF(), false)
	res.MaskedTime = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("apps: triangle count with %s: %w", eng.Name, err)
	}
	res.Triangles = int64(matrix.Sum(c))
	res.TotalTime = time.Since(start)
	return res, nil
}

// TriangleCountExact is a brute-force reference counter used by tests:
// for every edge (u, v) with u < v it intersects the adjacency lists.
// O(Σ_e (deg(u)+deg(v))).
func TriangleCountExact(g *matrix.CSR[float64]) int64 {
	var count int64
	for u := Index(0); u < g.NRows; u++ {
		uRow, _ := g.Row(u)
		for _, v := range uRow {
			if v <= u {
				continue
			}
			vRow, _ := g.Row(v)
			// Count common neighbors w with w > v to count each triangle once
			// per its largest vertex... simpler: count all common neighbors w
			// and divide total by 3 at the end (each triangle counted once
			// per edge).
			ui, vi := 0, 0
			for ui < len(uRow) && vi < len(vRow) {
				switch {
				case uRow[ui] == vRow[vi]:
					count++
					ui++
					vi++
				case uRow[ui] < vRow[vi]:
					ui++
				default:
					vi++
				}
			}
		}
	}
	return count / 3
}
