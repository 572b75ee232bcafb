package parallel

import (
	"context"
	"sort"
	"sync/atomic"
)

// Cost-balanced scheduling. Equal-row chunking (ForWorkers/ForChunks) bounds
// imbalance only when row costs are comparable; on power-law graphs a single
// chunk can carry orders of magnitude more flops than its neighbours, and a
// worker that claims it late becomes the tail of the whole pass.
// ForCostWorkers instead claims *equal-cost* spans: given a monotone prefix
// sum of per-row costs, each claim binary-searches the span whose cost
// matches a guided target — large spans while much work remains (amortizing
// the atomic claim), tapering down so the final spans are small enough to
// even out the tail.
const (
	// costTaperDivisor: a claim targets remaining/(costTaperDivisor·p) cost,
	// the classic guided self scheduling (GSS) taper.
	costTaperDivisor = 2
	// costSpanFloorDivisor floors the span cost at total/(p·floorDivisor)+1
	// so the taper cannot degenerate into per-row claims on the tail.
	costSpanFloorDivisor = 128
)

// costClaimer returns a claim function handing out disjoint spans [lo, hi)
// of [0, n) with approximately equal cost per span under a guided taper.
// prefix must be the monotone prefix sum of per-row costs with length n+1
// (prefix[i+1]-prefix[i] is the cost of row i; prefix[0] is an arbitrary
// base). Rows of zero cost are absorbed into their span for free.
func costClaimer(n, p int, prefix []int64, next *atomic.Int64) func() (int, int, bool) {
	total := prefix[n] - prefix[0]
	floor := total/int64(p*costSpanFloorDivisor) + 1
	return func() (int, int, bool) {
		for {
			lo := int(next.Load())
			if lo >= n {
				return 0, 0, false
			}
			target := (prefix[n] - prefix[lo]) / int64(p*costTaperDivisor)
			if target < floor {
				target = floor
			}
			// Smallest hi in (lo, n] whose span [lo, hi) reaches the target
			// cost; every span advances at least one row, and a zero-cost
			// tail is claimed whole.
			hi := lo + 1 + sort.Search(n-lo-1, func(d int) bool {
				return prefix[lo+1+d]-prefix[lo] >= target
			})
			if next.CompareAndSwap(int64(lo), int64(hi)) {
				return lo, hi, true
			}
		}
	}
}

// ForCostWorkers runs worker goroutines over [0, n) like ForWorkers, but
// workers claim equal-cost spans instead of equal-row chunks: prefix is the
// monotone prefix sum of per-row costs (length n+1), and each claim's span
// is sized so its summed cost matches a guided target that tapers as work
// drains. At most one worker runs per row. Use when row costs are heavily
// skewed (power-law graphs) and a cost profile is already available. Panics
// and cancellation behave as in ForWorkers.
func ForCostWorkers(ctx context.Context, n, workers int, prefix []int64, worker func(id int, claim func() (lo, hi int, ok bool))) error {
	if n <= 0 {
		return run(ctx, 0, nil, nil, worker)
	}
	if len(prefix) != n+1 {
		panic("parallel: cost prefix must have length n+1")
	}
	p := min(Threads(workers), n)
	var next atomic.Int64
	return run(ctx, p, &next, costClaimer(n, p, prefix, &next), worker)
}
