package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// kernel is the per-worker row engine every algorithm implements. A worker
// creates one kernel via the factory and reuses it for all rows it claims,
// so accumulator scratch is fetched once per worker.
type kernel[T any] interface {
	// symbolicRow returns the number of output entries row i will produce.
	symbolicRow(i Index) Index
	// numericRow computes row i into col/val (caller-sized) and returns the
	// number of entries written. Entries are written in sorted column order.
	numericRow(i Index, col []Index, val []T) Index
	// recycle returns the kernel's reusable scratch (accumulators, heap
	// storage) to the arena after the pass. ws may be nil, in which case the
	// scratch is simply dropped. The kernel must not be used after recycle.
	recycle(ws *Workspaces)
}

// execSeg assigns a kernel factory to the contiguous row range [lo, hi).
// A plain (non-mixed) execution is a single segment covering all rows.
type execSeg[T any] struct {
	lo, hi  Index
	factory func() kernel[T]
}

// workerKernels is the per-worker kernel set of a blocked execution: one
// kernel per segment, built when the worker starts.
type workerKernels[T any] struct {
	segs  []execSeg[T]
	kerns []kernel[T]
	cur   int // segment index of the most recent row (monotone within a chunk)
}

func newWorkerKernels[T any](segs []execSeg[T]) *workerKernels[T] {
	w := &workerKernels[T]{segs: segs, kerns: make([]kernel[T], len(segs))}
	for s := range segs {
		w.kerns[s] = segs[s].factory()
	}
	return w
}

// passScratch collects the scratch the workers of one parallel pass take
// from the arena. Every worker takes its scratch when it starts, whether or
// not it claims rows, and the coordinator returns all of it after the pass.
// So a call holds the same number of objects at once on every run, and a
// warmed arena serves every fetch whichever worker runs when. A worker
// panic re-panics on the coordinator, so nothing is returned and scratch a
// row left dirty is dropped.
type passScratch[S any] struct {
	mu  sync.Mutex
	all []S
}

func (p *passScratch[S]) add(s S) S {
	p.mu.Lock()
	p.all = append(p.all, s)
	p.mu.Unlock()
	return s
}

// at returns the kernel owning row i. Rows inside a claimed chunk are
// consecutive, so the lookup advances linearly from the cached segment and
// falls back to binary search only on backward jumps between chunks.
func (w *workerKernels[T]) at(i Index) kernel[T] {
	if i < w.segs[w.cur].lo {
		w.cur = sort.Search(len(w.segs), func(s int) bool { return w.segs[s].hi > i })
	}
	for i >= w.segs[w.cur].hi {
		w.cur++
	}
	return w.kerns[w.cur]
}

// recyclePass returns every kernel's scratch of a finished pass to the
// arena (nil ws is a no-op inside each kernel). Cancellation stops workers
// only between rows, which leave the accumulators fully reset.
func recyclePass[T any](p *passScratch[*workerKernels[T]], ws *Workspaces) {
	for _, w := range p.all {
		for _, k := range w.kerns {
			k.recycle(ws)
		}
	}
}

// sweepGrain is the chunk size of the drivers' cheap per-row sweeps (bound
// gathering, stitch copies), whose bodies are far lighter than a kernel row.
// opt.Grain overrides it like everywhere else.
const sweepGrain = 512

func (o Options) sweepGrain() int {
	if o.Grain > 0 {
		return o.Grain
	}
	return sweepGrain
}

// procStart anchors the default monotonic clock; only differences of its
// readings are ever used.
var procStart = time.Now()

// nowFn resolves the options' clock: the injected NowNs when set (tests
// drive block timing deterministically with it), else the process monotonic
// clock.
func (o Options) nowFn() func() int64 {
	if o.NowNs != nil {
		return o.NowNs
	}
	return func() int64 { return int64(time.Since(procStart)) }
}

// segTimer accumulates per-segment kernel wall time during a blocked
// execution. A nil *segTimer disables timing (single-variant calls, callers
// that did not ask for stats) at zero cost.
type segTimer struct {
	now   func() int64
	segHi []Index // ascending segment end rows; segHi[i] closes segment i
	segNs []int64 // accumulated nanoseconds per segment (atomic)
}

// add attributes dt nanoseconds spent on the row chunk [lo, hi) to the
// segments it overlaps, pro-rata by row count.
func (t *segTimer) add(lo, hi int, dt int64) {
	if dt <= 0 {
		return
	}
	rows := int64(hi - lo)
	s := sort.Search(len(t.segHi), func(i int) bool { return int(t.segHi[i]) > lo })
	for lo < hi && s < len(t.segHi) {
		end := hi
		if int(t.segHi[s]) < end {
			end = int(t.segHi[s])
		}
		atomic.AddInt64(&t.segNs[s], dt*int64(end-lo)/rows)
		lo = end
		s++
	}
}

// wrap instruments one worker body: the wall time between successive claim
// calls is the time the worker spent computing the chunk it previously
// claimed (kernel rows only — the scan/stitch sweeps run outside forRows),
// measured once per chunk so the clock never sits on the per-row fast path.
func (t *segTimer) wrap(worker func(id int, claim func() (int, int, bool))) func(id int, claim func() (int, int, bool)) {
	if t == nil {
		return worker
	}
	return func(id int, claim func() (int, int, bool)) {
		prevLo, prevHi := 0, 0
		last := t.now()
		worker(id, func() (int, int, bool) {
			lo, hi, ok := claim()
			nowNs := t.now()
			if prevHi > prevLo {
				t.add(prevLo, prevHi, nowNs-last)
			}
			last = nowNs
			prevLo, prevHi = lo, hi
			if !ok {
				prevLo, prevHi = 0, 0
			}
			return lo, hi, ok
		})
	}
}

// forRows runs one kernel pass over all rows under the options' schedule:
// equal-cost spans over the row-cost prefix when a skewed profile is
// available (see schedPrefix), equal-row dynamic chunks otherwise. Both
// forms are cancellation-aware and deliver rows to workers in disjoint
// ascending spans, so kernel results never depend on the schedule. A non-nil
// timer observes each worker's per-chunk wall time.
func forRows(opt Options, nrows Index, timer *segTimer, worker func(id int, claim func() (lo, hi int, ok bool))) error {
	worker = timer.wrap(worker)
	if prefix := schedPrefix(opt, nrows); prefix != nil {
		return parallel.ForCostWorkers(opt.Ctx, int(nrows), opt.Workers(), prefix, worker)
	}
	return parallel.ForWorkers(opt.Ctx, int(nrows), opt.Workers(), opt.Grain, worker)
}

// runDriver executes the selected phase strategy with one kernel for the
// whole row space. It returns opt.Ctx's error (and no matrix) when the
// context is cancelled before the product completes.
func runDriver[T any](phase Phase, m *matrix.Pattern, ncols Index, bound func(Index) int64, factory func() kernel[T], opt Options) (*matrix.CSR[T], error) {
	segs := []execSeg[T]{{lo: 0, hi: m.NRows, factory: factory}}
	return runDriverBlocked(phase, m.NRows, ncols, bound, segs, opt, nil)
}

// runDriverBlocked executes the selected phase strategy over a partition of
// the row space: each segment's rows run on that segment's kernel. Dynamic
// chunk scheduling still spans the whole row space, so load balance does not
// degrade when segments have skewed costs. A non-nil timer accumulates each
// segment's kernel wall time (both passes of a two-phase run).
func runDriverBlocked[T any](phase Phase, nrows, ncols Index, bound func(Index) int64, segs []execSeg[T], opt Options, timer *segTimer) (*matrix.CSR[T], error) {
	if phase == TwoPhase {
		return driver2P(nrows, ncols, segs, opt, timer)
	}
	return driver1P(nrows, ncols, bound, segs, opt, timer)
}

// fillRowPtr writes the Index row pointers from the scanned int64 offsets.
func fillRowPtr(opt Options, rowPtr []Index, offs []int64, total int64) {
	nrows := len(offs)
	parallel.ForChunks(nil, nrows, opt.Workers(), opt.sweepGrain(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rowPtr[i] = Index(offs[i])
		}
	})
	rowPtr[nrows] = Index(total)
}

// driver2P is the two-phase strategy (§6): a symbolic pass computes each
// row's output size, a parallel scan turns sizes into row pointers, and the
// numeric pass writes directly into exactly-sized output arrays. The per-row
// count array is pooled on opt.Workspaces; the only allocations of a warmed
// call are the returned output's.
func driver2P[T any](nrows, ncols Index, segs []execSeg[T], opt Options, timer *segTimer) (*matrix.CSR[T], error) {
	cb := wsGetI64(opt.Workspaces, int(nrows))
	counts := cb.s
	var sym passScratch[*workerKernels[T]]
	err := forRows(opt, nrows, timer, func(_ int, claim func() (int, int, bool)) {
		k := sym.add(newWorkerKernels(segs))
		for {
			lo, hi, ok := claim()
			if !ok {
				return
			}
			for i := lo; i < hi; i++ {
				counts[i] = int64(k.at(Index(i)).symbolicRow(Index(i)))
			}
		}
	})
	recyclePass(&sym, opt.Workspaces)
	if err != nil {
		wsPutI64(opt.Workspaces, cb)
		return nil, err
	}
	total := parallel.ExclusiveScanParallel(counts, opt.Workers()) // counts[i] is now the row offset
	out := &matrix.CSR[T]{
		NRows:  nrows,
		NCols:  ncols,
		RowPtr: make([]Index, nrows+1),
		Col:    make([]Index, total),
		Val:    make([]T, total),
	}
	fillRowPtr(opt, out.RowPtr, counts, total)
	wsPutI64(opt.Workspaces, cb)
	var num passScratch[*workerKernels[T]]
	err = forRows(opt, nrows, timer, func(_ int, claim func() (int, int, bool)) {
		k := num.add(newWorkerKernels(segs))
		for {
			lo, hi, ok := claim()
			if !ok {
				return
			}
			for i := lo; i < hi; i++ {
				off := out.RowPtr[i]
				k.at(Index(i)).numericRow(Index(i), out.Col[off:out.RowPtr[i+1]], out.Val[off:out.RowPtr[i+1]])
			}
		}
	})
	recyclePass(&num, opt.Workspaces)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// driver1P is the one-phase strategy (§6): size a bound-binned buffer from
// the per-row upper bound (for normal masks, the mask row size — the "good
// initial approximation" §6 describes), run the numeric pass once with each
// row writing into its own bin, then assemble the exactly-sized output.
//
// Assembly is zero-copy when every row fills its bin: the pooled bin buffers
// are handed to the caller as the output arrays and not a byte moves (the
// pool re-arms on the next call). Only when rows under-fill their bound does
// a single parallel gather stitch the bins into fresh exact arrays — the
// work the old unconditional compaction pass paid on every call. All bin and
// bookkeeping buffers are pooled on opt.Workspaces, so a warmed under-filled
// call allocates nothing beyond the returned output either.
func driver1P[T any](nrows, ncols Index, bound func(Index) int64, segs []execSeg[T], opt Options, timer *segTimer) (*matrix.CSR[T], error) {
	ws := opt.Workspaces
	ob := wsGetI64(ws, int(nrows))
	offs := ob.s
	err := parallel.ForChunks(opt.Ctx, int(nrows), opt.Workers(), opt.sweepGrain(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			offs[i] = bound(Index(i))
		}
	})
	if err != nil {
		wsPutI64(ws, ob)
		return nil, err
	}
	totalBound := parallel.ExclusiveScanParallel(offs, opt.Workers()) // offs[i] = bin offset of row i
	binCol := wsGetIdx(ws, int(totalBound))
	binVal := wsGetVal[T](ws, int(totalBound))
	cb := wsGetI64(ws, int(nrows))
	counts := cb.s
	tmpCol, tmpVal := binCol.s, binVal.s
	recycle := func() {
		wsPutI64(ws, ob)
		wsPutI64(ws, cb)
		wsPutIdx(ws, binCol)
		wsPutVal(ws, binVal)
	}
	var kerns passScratch[*workerKernels[T]]
	err = forRows(opt, nrows, timer, func(_ int, claim func() (int, int, bool)) {
		k := kerns.add(newWorkerKernels(segs))
		for {
			lo, hi, ok := claim()
			if !ok {
				return
			}
			for i := lo; i < hi; i++ {
				var end int64
				if i+1 < int(nrows) {
					end = offs[i+1]
				} else {
					end = totalBound
				}
				counts[i] = int64(k.at(Index(i)).numericRow(Index(i), tmpCol[offs[i]:end], tmpVal[offs[i]:end]))
			}
		}
	})
	recyclePass(&kerns, ws)
	if err != nil {
		recycle()
		return nil, err
	}
	fb := wsGetI64(ws, int(nrows))
	finalPtr := fb.s
	copy(finalPtr, counts)
	total := parallel.ExclusiveScanParallel(finalPtr, opt.Workers())
	out := &matrix.CSR[T]{NRows: nrows, NCols: ncols, RowPtr: make([]Index, nrows+1)}
	fillRowPtr(opt, out.RowPtr, finalPtr, total)
	if total == totalBound {
		// Every row filled its bound exactly (finalPtr == offs), so the bin
		// buffers already are the output: hand them over and move zero
		// bytes. The pool entries they came from re-arm on the next call.
		out.Col = tmpCol[:total]
		out.Val = tmpVal[:total]
		wsPutI64(ws, ob)
		wsPutI64(ws, cb)
		wsPutI64(ws, fb)
		return out, nil
	}
	out.Col = make([]Index, total)
	out.Val = make([]T, total)
	err = parallel.ForChunks(opt.Ctx, int(nrows), opt.Workers(), opt.sweepGrain(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := counts[i]
			copy(out.Col[finalPtr[i]:finalPtr[i]+n], tmpCol[offs[i]:offs[i]+n])
			copy(out.Val[finalPtr[i]:finalPtr[i]+n], tmpVal[offs[i]:offs[i]+n])
		}
	})
	recycle()
	wsPutI64(ws, fb)
	if err != nil {
		return nil, err
	}
	return out, nil
}
