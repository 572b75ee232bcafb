package parallel

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
)

// Cost-balanced scheduling. Equal-row chunking (ForChunks/ForWorkers) bounds
// imbalance only when row costs are comparable; on power-law graphs a single
// chunk can carry orders of magnitude more flops than its neighbours, and a
// worker that claims it late becomes the tail of the whole pass. The ForCost*
// variants instead claim *equal-cost* spans: given a monotone prefix sum of
// per-row costs, each claim binary-searches the span whose cost matches a
// guided target — large spans while much work remains (amortizing the atomic
// claim), tapering down so the final spans are small enough to even out the
// tail.
const (
	// costTaperDivisor: a claim targets remaining/(costTaperDivisor·p) cost,
	// the classic guided self-scheduling taper.
	costTaperDivisor = 2
	// costSpanFloorDivisor floors the span cost at total/(p·floorDivisor)+1
	// so the taper cannot degenerate into per-row claims on the tail.
	costSpanFloorDivisor = 128
)

// costWorkerCount caps the worker count at one worker per row.
func costWorkerCount(n, workers int) int {
	p := Threads(workers)
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

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

// ForCostWorkers runs p worker goroutines over [0, n) like ForWorkers, but
// workers claim equal-cost spans instead of equal-row chunks: prefix is the
// monotone prefix sum of per-row costs (length n+1), and each claim's span
// is sized so its summed cost matches a guided target that tapers as work
// drains. Use when row costs are heavily skewed (power-law graphs) and a
// cost profile is already available. Worker panics are re-raised on the
// calling goroutine as a WorkerPanic (see ForChunks).
func ForCostWorkers(n, workers int, prefix []int64, worker func(id int, claim func() (lo, hi int, ok bool))) {
	if n <= 0 {
		return
	}
	if len(prefix) != n+1 {
		panic("parallel: cost prefix must have length n+1")
	}
	p := costWorkerCount(n, workers)
	var next atomic.Int64
	claim := costClaimer(n, p, prefix, &next)
	if p == 1 {
		worker(0, claim)
		return
	}
	var wg sync.WaitGroup
	var pan panicBox
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(id int) {
			defer wg.Done()
			defer pan.capture(&next)
			maybePanic()
			worker(id, claim)
		}(w)
	}
	wg.Wait()
	pan.rethrow()
}

// ForCostWorkersCtx is ForCostWorkers with cooperative cancellation (the
// ForWorkersCtx semantics: workers observe ctx between span claims and never
// abandon a claimed span half-done). Returns ctx.Err() when the iteration
// stopped early, nil when every row ran.
func ForCostWorkersCtx(ctx context.Context, n, workers int, prefix []int64, worker func(id int, claim func() (lo, hi int, ok bool))) error {
	if ctx == nil || ctx.Done() == nil {
		ForCostWorkers(n, workers, prefix, worker)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	done := ctx.Done()
	var cancelled atomic.Bool
	ForCostWorkers(n, workers, prefix, func(id int, claim func() (lo, hi int, ok bool)) {
		worker(id, func() (int, int, bool) {
			if cancelled.Load() {
				return 0, 0, false
			}
			select {
			case <-done:
				cancelled.Store(true)
				return 0, 0, false
			default:
			}
			return claim()
		})
	})
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// ForCostChunks runs body(lo, hi) over disjoint equal-cost spans covering
// [0, n), claimed dynamically with the guided taper (see ForCostWorkers).
func ForCostChunks(n, workers int, prefix []int64, body func(lo, hi int)) {
	ForCostWorkers(n, workers, prefix, func(_ int, claim func() (lo, hi int, ok bool)) {
		for {
			lo, hi, ok := claim()
			if !ok {
				return
			}
			body(lo, hi)
		}
	})
}

// ForCostChunksCtx is ForCostChunks with cooperative cancellation.
func ForCostChunksCtx(ctx context.Context, n, workers int, prefix []int64, body func(lo, hi int)) error {
	if ctx == nil || ctx.Done() == nil {
		ForCostChunks(n, workers, prefix, body)
		return nil
	}
	return ForCostWorkersCtx(ctx, n, workers, prefix, func(_ int, claim func() (lo, hi int, ok bool)) {
		for {
			lo, hi, ok := claim()
			if !ok {
				return
			}
			body(lo, hi)
		}
	})
}

// minScanBlock is the smallest per-block work of a parallel scan; below
// p·minScanBlock elements the sequential scan wins on memory bandwidth.
const minScanBlock = 8192

// ExclusiveScanParallel is ExclusiveScan with a two-pass parallel block
// scan: blocks are summed in parallel, the block sums are scanned
// sequentially (p elements), and a second parallel pass rewrites each block
// with its exclusive prefix offset by the block base. Falls back to the
// sequential scan when the input is too small to amortize the two passes.
func ExclusiveScanParallel(counts []int64, workers int) int64 {
	p := Threads(workers)
	if p > len(counts)/minScanBlock {
		p = len(counts) / minScanBlock
	}
	if p <= 1 {
		return ExclusiveScan(counts)
	}
	return exclusiveScanBlocks(counts, p)
}

// exclusiveScanBlocks runs the two-pass block scan with exactly nb blocks
// (nb ≥ 1); split out so tests can pin the block count independently of the
// size heuristic.
func exclusiveScanBlocks(counts []int64, nb int) int64 {
	n := len(counts)
	blockSize := (n + nb - 1) / nb
	sums := make([]int64, nb)
	pass := func(f func(b, lo, hi int)) {
		var wg sync.WaitGroup
		wg.Add(nb)
		for b := 0; b < nb; b++ {
			go func(b int) {
				defer wg.Done()
				lo := b * blockSize
				hi := lo + blockSize
				if hi > n {
					hi = n
				}
				if lo > n {
					lo = n
				}
				f(b, lo, hi)
			}(b)
		}
		wg.Wait()
	}
	pass(func(b, lo, hi int) {
		var s int64
		for i := lo; i < hi; i++ {
			s += counts[i]
		}
		sums[b] = s
	})
	total := ExclusiveScan(sums)
	pass(func(b, lo, hi int) {
		s := sums[b]
		for i := lo; i < hi; i++ {
			c := counts[i]
			counts[i] = s
			s += c
		}
	})
	return total
}
