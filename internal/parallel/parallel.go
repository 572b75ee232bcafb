// Package parallel provides the data-parallel loops used by the masked
// SpGEMM kernels and the graph applications.
//
// All kernels in this repository parallelize across matrix rows, following
// the paper's observation (§3) that there is plenty of coarse-grained
// parallelism across rows on multi-core machines. Workers claim disjoint
// spans of the row range dynamically, in one of two ways: fixed-size
// (equal-row) chunks from a shared atomic counter (ForWorkers, and its
// chunk adapter ForChunks), or, when a per-row cost profile is available
// (ForCostWorkers), equal-cost spans found by binary search over the cost
// prefix sum, which keeps load balanced even when row costs are heavily
// skewed (power-law graphs).
//
// Every loop takes a context first (nil is allowed) and runs on one runner,
// which starts the worker goroutines, observes the context between claims,
// and re-raises the first worker panic on the caller as a WorkerPanic.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// DefaultGrain is the number of consecutive loop indices a worker claims at
// a time when no explicit grain is given. Chosen so that a chunk amortizes
// the atomic fetch-add while still load-balancing heavy-tailed row costs.
const DefaultGrain = 64

// Threads returns the effective worker count: n if positive, otherwise
// GOMAXPROCS.
func Threads(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// WorkerPanic is what the coordinator re-panics with on its own goroutine
// when a worker goroutine panics: the first worker's panic value plus that
// worker's stack, captured at the point of panic. Without this translation a
// worker panic would crash the process from a goroutine nobody can recover
// on; with it, the panic surfaces on the goroutine that called the loop,
// where the serving layer's recover barriers can turn it into an error
// response.
type WorkerPanic struct {
	// Value is the original panic value from the worker goroutine.
	Value any
	// Stack is the worker goroutine's stack at the point of panic.
	Stack []byte
}

// String renders the original panic value and the worker stack.
func (p WorkerPanic) String() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", p.Value, p.Stack)
}

// panicBox collects the first worker panic of a parallel loop. capture runs
// deferred on each worker; it poisons the shared claim counter so surviving
// workers drain within one claim, and records the panic for rethrow to
// re-raise on the coordinator after wg.Wait (which orders the writes).
type panicBox struct {
	once sync.Once
	pan  *WorkerPanic
}

// poisonClaims is stored into a loop's claim counter when a worker panics:
// far beyond any real n, so every later claim comes back empty.
const poisonClaims = int64(1) << 62

func (b *panicBox) capture(next *atomic.Int64) {
	if v := recover(); v != nil {
		stack := debug.Stack()
		b.once.Do(func() {
			b.pan = &WorkerPanic{Value: v, Stack: stack}
		})
		next.Store(poisonClaims)
	}
}

func (b *panicBox) rethrow() {
	if b.pan != nil {
		panic(*b.pan)
	}
}

// cancellable reports whether ctx can ever be cancelled.
func cancellable(ctx context.Context) bool {
	return ctx != nil && ctx.Done() != nil
}

// run is the one runner behind every loop: it calls worker(id, claim) on p
// workers and returns when all have returned. claim hands out disjoint
// spans from the shared counter next, which a panicking worker poisons so
// the others drain; the first panic is re-raised on the caller as a
// WorkerPanic, and every worker goroutine fires the parallel.worker.panic
// fault point before its first claim. p == 1 runs the worker on the caller,
// and p < 1 runs nothing.
//
// A cancellable ctx is observed between claims: once it is done every claim
// reports done, and run returns ctx.Err(). Cancellation is cooperative at
// claim granularity: indices inside an already-claimed span still run, so
// workers never abandon a row half-computed. A pre-cancelled ctx runs no
// worker; a nil or never-cancelled ctx adds nothing to a claim.
func run(ctx context.Context, p int, next *atomic.Int64, claim func() (int, int, bool), worker func(id int, claim func() (lo, hi int, ok bool))) error {
	var cancelled atomic.Bool
	if cancellable(ctx) {
		if err := ctx.Err(); err != nil {
			return err
		}
		done, claimSpan := ctx.Done(), claim
		claim = func() (int, int, bool) {
			select {
			case <-done:
				cancelled.Store(true)
				return 0, 0, false
			default:
				return claimSpan()
			}
		}
	}
	switch {
	case p == 1:
		worker(0, claim)
	case p > 1:
		var wg sync.WaitGroup
		var pan panicBox
		wg.Add(p)
		for id := range p {
			go func() {
				defer wg.Done()
				defer pan.capture(next)
				if faultinject.Fire(faultinject.PointWorkerPanic) {
					panic("faultinject: " + faultinject.PointWorkerPanic)
				}
				worker(id, claim)
			}()
		}
		wg.Wait()
		pan.rethrow()
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}

// rowWorkers defaults grain and returns the worker count of an equal-row
// loop over n indices: at most one worker per grain plus one, and none for
// an empty range.
func rowWorkers(n, workers, grain int) (p, g int) {
	if grain <= 0 {
		grain = DefaultGrain
	}
	if n <= 0 {
		return 0, grain
	}
	return min(Threads(workers), n/grain+1), grain
}

// ForWorkers runs worker goroutines (workers, 0 meaning GOMAXPROCS) over
// [0, n). Each worker receives its worker id and a claim function;
// repeatedly calling claim yields disjoint ascending chunks [lo, hi) of
// grain indices (0 means DefaultGrain) until ok is false. This form lets a
// worker allocate scratch state (e.g. an accumulator) once and reuse it
// across all chunks it processes, which is how the SpGEMM kernels avoid
// per-row allocation.
//
// A worker panic is re-raised on the calling goroutine as a WorkerPanic,
// carrying the worker's stack, after the surviving workers drain (at most
// one in-flight chunk each). ForWorkers returns ctx.Err() when a
// cancellation stopped it early (see run), nil when every index ran.
func ForWorkers(ctx context.Context, n, workers, grain int, worker func(id int, claim func() (lo, hi int, ok bool))) error {
	p, grain := rowWorkers(n, workers, grain)
	var next atomic.Int64
	claim := func() (int, int, bool) {
		lo := next.Add(int64(grain)) - int64(grain)
		if lo >= int64(n) {
			return 0, 0, false
		}
		return int(lo), int(min(lo+int64(grain), int64(n))), true
	}
	return run(ctx, p, &next, claim, worker)
}

// ForChunks runs body(lo, hi) over disjoint chunks [lo, hi) covering [0, n),
// claimed dynamically as in ForWorkers, whose panic and cancellation
// semantics it shares. When one worker would run and ctx cannot be
// cancelled, it calls body(0, n) once on the caller.
func ForChunks(ctx context.Context, n, workers, grain int, body func(lo, hi int)) error {
	if p, _ := rowWorkers(n, workers, grain); p == 1 && !cancellable(ctx) {
		body(0, n)
		return nil
	}
	return ForWorkers(ctx, n, workers, grain, func(_ int, claim func() (lo, hi int, ok bool)) {
		for lo, hi, ok := claim(); ok; lo, hi, ok = claim() {
			body(lo, hi)
		}
	})
}

// ExclusiveScan computes the exclusive prefix sum of counts in place:
// counts[i] becomes sum of the original counts[0..i), and the total sum is
// returned. Used to turn per-row nnz counts into CSR row pointers.
func ExclusiveScan(counts []int64) int64 {
	var sum int64
	for i, c := range counts {
		counts[i] = sum
		sum += c
	}
	return sum
}

// minScanBlock is the smallest per-block work of a parallel scan; below
// p·minScanBlock elements the sequential scan wins on memory bandwidth.
const minScanBlock = 8192

// ExclusiveScanParallel is ExclusiveScan with a two-pass parallel block
// scan: blocks are summed in parallel, the block sums are scanned
// sequentially (p elements), and a second parallel pass rewrites each block
// with its exclusive prefix offset by the block base. Falls back to the
// sequential scan when the input is too small to amortize the two passes.
// A worker panic is re-raised on the caller as a WorkerPanic.
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
// (nb ≥ 1), one worker per block; split out so tests can pin the block
// count independently of the size heuristic.
func exclusiveScanBlocks(counts []int64, nb int) int64 {
	n := len(counts)
	blockSize := (n + nb - 1) / nb
	sums := make([]int64, nb)
	pass := func(f func(b, lo, hi int)) {
		ForChunks(nil, nb, nb, 1, func(blo, bhi int) {
			for b := blo; b < bhi; b++ {
				lo := min(b*blockSize, n)
				f(b, lo, min(lo+blockSize, n))
			}
		})
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
