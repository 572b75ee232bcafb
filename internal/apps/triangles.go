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
	// MaskedTime is the time spent inside the masked product only — what
	// the paper reports for this benchmark (§8.2). On the count path it
	// covers the whole count call, its row-cost sweep included.
	MaskedTime time.Duration
	// TotalTime includes building the operand (the relabel, or the degree
	// orientation on the count path) and the reduction.
	TotalTime time.Duration
	// Flops is flops(L·L), the work metric for GFLOPS plots (Fig. 10). The
	// count path takes it as flops(X·X) for X = matrix.DegreeTril(g), which
	// is L in g's own labels and so has the same
	// Σ_k nnz(L(k,:))·nnz(L(:,k)).
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
// order (§8.2). For a non-symmetric g the count is over L = Tril(P·g·Pᵀ):
// only the entries that land strictly below the diagonal after relabeling
// count.
//
// An engine with a PairCount (the Auto engine) relabels nothing. It counts
// on X = matrix.DegreeTril(g), g's pattern with each edge oriented toward
// its higher-degree end in g's own labels, without building the product.
// X is Pᵀ·L·P for the relabel's permutation P, so sum(X .* (X·X)) =
// sum(L .* (L·L)), and the count means the same for a non-symmetric g.
// Its flops come from the row-cost sweep that schedules the count; it
// makes no plan and leaves the plan cache alone, because X is rebuilt on
// every call. Any other engine runs Mult on the plus-pair semiring over L
// from matrix.RelabelTril, the paper's operand, and sums the product, with
// the flops counted by core.Flops.
//
// The operand is built on as many workers as the engine's options allow
// when the call starts (core.Options.Workers, which an arbiter grant
// bounds), one worker for an engine built without options. It, and so the
// count, is the same for every worker count. A worker panic is re-raised
// on the caller as a parallel.WorkerPanic.
func TriangleCount(g *matrix.CSR[float64], eng Engine) (TCResult, error) {
	start := time.Now()
	var res TCResult
	var err error
	w := 1
	if eng.workers != nil {
		w = eng.workers()
	}
	if eng.PairCount != nil {
		x := matrix.DegreeTril(g, w)
		t0 := time.Now()
		res.Triangles, res.Flops, err = eng.PairCount(x, x, x)
		res.MaskedTime = time.Since(t0)
	} else {
		l := matrix.RelabelTril(g, w)
		res.Flops = core.Flops(l, l, 0)
		t0 := time.Now()
		var c *matrix.CSR[float64]
		c, err = eng.Mult(l.Pattern(), l, l, semiring.PlusPairF(), false)
		res.MaskedTime = time.Since(t0)
		if err == nil {
			res.Triangles = int64(matrix.Sum(c))
		}
	}
	if err != nil {
		return res, fmt.Errorf("apps: triangle count with %s: %w", eng.Name, err)
	}
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
