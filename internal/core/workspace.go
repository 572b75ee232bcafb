package core

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/accum"
	"repro/internal/matrix"
)

// Workspaces is a session-scoped arena of reusable kernel and driver
// scratch. The expensive per-worker state of the kernels — the MSA's two
// dense length-ncols arrays, hash tables, MCA buffers, heap iterator
// storage and mask-probe bitmaps — and the phase drivers' per-call buffers
// are taken from the arena when a call starts and returned when its
// workers finish, so iterative callers (BFS, BC, k-truss sweeps) stop
// paying an O(ncols) allocation per worker per call.
//
// Workspaces is safe for concurrent use and a nil *Workspaces disables
// pooling entirely: every helper falls back to a fresh allocation. Pooled
// entries hold no row state between calls — each kernel leaves its
// accumulator fully reset (the per-row reset discipline the kernels already
// follow), so reuse is bit-identical to fresh scratch.
//
// Overlapping calls — the serving layer admits several multiplies on one
// session at once — are safe by ownership discipline: every pooled object
// is held by exactly one worker goroutine between its Get and Put (kernels
// recycle scratch only after their last row; the drivers Put bookkeeping
// buffers only after the passes using them finish), so two in-flight
// multiplies can never share a live buffer, only exchange retired ones
// through the pool. The masked serving stress test runs mixed concurrent
// workloads under -race to enforce this.
//
// Accumulators are stored as concrete *accum.MSA[T] etc. values for
// whatever element type the calls use; a retained entry of a different T
// than the requester's is discarded and replaced by a fresh allocation
// (sessions are in practice monomorphic in T, so this never happens on the
// hot path).
type Workspaces struct {
	// All scratch sits on LIFO free lists under one mutex, drvMu. The
	// driver buffers — per-row counts and offsets (int64), the one-phase
	// bound-binned column buffer (Index) and value buffer (T) — sit on
	// size-classed ladders: class c holds buffers with capacity in
	// [2^c, 2^(c+1)), and buffers are allocated with capacity rounded up to
	// the class boundary, so a stable working size always lands back in the
	// class it is fetched from. Accumulators sit on one list per kind and
	// grow in place when a call needs more columns. Calls fetch a handful
	// of objects each (per worker, not per row), so the mutex is off the
	// hot path, and every retained Put is seen by the next Get whichever
	// goroutine or P made it, across garbage collections.
	//
	// What the lists retain is bounded two ways. A list never holds more
	// objects than were outstanding from it at once, since an object is
	// only allocated when its list is empty. And the retained bytes, each
	// object charged by its capacity, never exceed retainLimit: a Put that
	// would pass it first evicts the objects returned longest ago, and an
	// object larger than the limit is left to the garbage collector. So one
	// oversized multiply cannot make a long-lived session keep its peak
	// footprint, while a steady working set within the limit stays resident
	// and takes zero misses.
	drvMu       sync.Mutex
	i64         [poolClasses]freeList // *bufI64
	idx         [poolClasses]freeList // *bufIdx
	val         [poolClasses]freeList // *bufVal[T]
	acc         [accKinds]freeList    // accumulators, indexed by accMSA etc.
	drvSeq      uint64                // Put counter, orders retained objects by age
	drvRetained int64                 // bytes held across all lists
	retainLimit int64                 // bound on drvRetained; NewWorkspaces sets driverRetainBytes

	// drvGets/drvMisses instrument the lists: a "miss" is a Get that had
	// to allocate. Warmed steady state shows zero new misses; the alloc
	// tests and the schedule bench study assert exactly that.
	drvGets, drvMisses atomic.Int64
}

// Accumulator kinds, one free list each.
const (
	accMSA = iota
	accHash
	accMCA
	accHeap
	accBitmap
	accKinds
)

// poolClasses bounds the size-class ladder (2^47 elements ≫ any host).
const poolClasses = 48

// driverRetainBytes bounds the scratch bytes a session retains between
// calls. The steady working sets of perfbench's workloads (1.7 to 5.8 MiB
// of driver buffers, plus a few accumulators) stay under a fifth of it, so
// they run with zero pool misses.
const driverRetainBytes = 32 << 20

// freeList is a LIFO stack of retired scratch objects of one size class
// or accumulator kind, guarded by Workspaces.drvMu.
type freeList struct{ free []retainedBuf }

// retainedBuf is one object on a free list: its box, its capacity in
// bytes, and the Put that retained it (its age, for eviction).
type retainedBuf struct {
	box   any
	bytes int64
	seq   uint64
}

// getBuf pops the most recently returned object of l, or nil.
func (ws *Workspaces) getBuf(l *freeList) any {
	ws.drvMu.Lock()
	defer ws.drvMu.Unlock()
	n := len(l.free)
	if n == 0 {
		return nil
	}
	r := l.free[n-1]
	l.free[n-1] = retainedBuf{}
	l.free = l.free[:n-1]
	ws.drvRetained -= r.bytes
	return r.box
}

// putBuf retains box (bytes of capacity) on l, first evicting the oldest
// retained objects until it fits under retainLimit. An object larger than
// the limit is not retained.
func (ws *Workspaces) putBuf(l *freeList, box any, bytes int64) {
	ws.drvMu.Lock()
	defer ws.drvMu.Unlock()
	if bytes > ws.retainLimit {
		return
	}
	for ws.drvRetained+bytes > ws.retainLimit {
		ws.evictOldest()
	}
	ws.drvSeq++
	l.free = append(l.free, retainedBuf{box: box, bytes: bytes, seq: ws.drvSeq})
	ws.drvRetained += bytes
}

// evictOldest drops the object returned longest ago. Each list is a stack,
// so its oldest object is at the bottom; the oldest overall is the bottom
// with the smallest seq. Callers hold drvMu and retain at least one object.
func (ws *Workspaces) evictOldest() {
	var oldest *freeList
	for _, lists := range [][]freeList{ws.i64[:], ws.idx[:], ws.val[:], ws.acc[:]} {
		for c := range lists {
			if l := &lists[c]; len(l.free) > 0 && (oldest == nil || l.free[0].seq < oldest.free[0].seq) {
				oldest = l
			}
		}
	}
	ws.drvRetained -= oldest.free[0].bytes
	oldest.free = slices.Delete(oldest.free, 0, 1)
}

// bufI64/bufIdx/bufVal box a pooled slice so the box itself is reused
// through the pool: Get and Put move the same pointer, allocating nothing in
// steady state (Put of a bare slice would box it on every call).
type bufI64 struct{ s []int64 }
type bufIdx struct{ s []Index }
type bufVal[T any] struct{ s []T }

// sizeClass returns the class whose buffers can hold n elements: the
// smallest c with 2^c ≥ n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c >= poolClasses {
		c = poolClasses - 1
	}
	return c
}

// classCap returns the allocation capacity of class c buffers, clamped so
// oversized requests fall back to exact-size allocations.
func classCap(c, n int) int {
	if cc := 1 << c; cc >= n {
		return cc
	}
	return n
}

// PoolStats reports the arena's Get calls, driver buffers and accumulators
// alike, and the subset that had to allocate. Misses stop growing once a
// session is warm; the difference across a warmed call is the scratch
// allocations the alloc tests pin to zero. It travels through the unified
// session stats and the /metrics exporter.
type PoolStats struct {
	// Gets counts scratch fetches; Misses the subset that had to
	// allocate. Both are monotonic over the workspace's lifetime.
	Gets, Misses int64
}

// PoolStatsSnapshot returns the arena's pool counters.
func (ws *Workspaces) PoolStatsSnapshot() PoolStats {
	return PoolStats{Gets: ws.drvGets.Load(), Misses: ws.drvMisses.Load()}
}

func wsGetI64(ws *Workspaces, n int) *bufI64 {
	if ws != nil {
		ws.drvGets.Add(1)
		c := sizeClass(n)
		if v, ok := ws.getBuf(&ws.i64[c]).(*bufI64); ok && cap(v.s) >= n {
			v.s = v.s[:n]
			return v
		}
		ws.drvMisses.Add(1)
		return &bufI64{s: make([]int64, n, classCap(c, n))}
	}
	return &bufI64{s: make([]int64, n)}
}

func wsPutI64(ws *Workspaces, b *bufI64) {
	if ws != nil && b != nil && cap(b.s) > 0 {
		ws.putBuf(&ws.i64[sizeClass(cap(b.s))], b, int64(cap(b.s))*8)
	}
}

func wsGetIdx(ws *Workspaces, n int) *bufIdx {
	if ws != nil {
		ws.drvGets.Add(1)
		c := sizeClass(n)
		if v, ok := ws.getBuf(&ws.idx[c]).(*bufIdx); ok && cap(v.s) >= n {
			v.s = v.s[:n]
			return v
		}
		ws.drvMisses.Add(1)
		return &bufIdx{s: make([]Index, n, classCap(c, n))}
	}
	return &bufIdx{s: make([]Index, n)}
}

func wsPutIdx(ws *Workspaces, b *bufIdx) {
	if ws != nil && b != nil && cap(b.s) > 0 {
		ws.putBuf(&ws.idx[sizeClass(cap(b.s))], b, int64(cap(b.s))*int64(unsafe.Sizeof(Index(0))))
	}
}

func wsGetVal[T any](ws *Workspaces, n int) *bufVal[T] {
	if ws != nil {
		ws.drvGets.Add(1)
		c := sizeClass(n)
		if v, ok := ws.getBuf(&ws.val[c]).(*bufVal[T]); ok && cap(v.s) >= n {
			v.s = v.s[:n]
			return v
		}
		ws.drvMisses.Add(1)
		return &bufVal[T]{s: make([]T, n, classCap(c, n))}
	}
	return &bufVal[T]{s: make([]T, n)}
}

func wsPutVal[T any](ws *Workspaces, b *bufVal[T]) {
	if ws != nil && b != nil && cap(b.s) > 0 {
		ws.putBuf(&ws.val[sizeClass(cap(b.s))], b, int64(cap(b.s))*int64(unsafe.Sizeof(b.s[0])))
	}
}

// NewWorkspaces returns an empty arena.
func NewWorkspaces() *Workspaces { return &Workspaces{retainLimit: driverRetainBytes} }

// getAcc pops the most recently returned accumulator of kind k, counting
// the fetch. ok is false when the list is empty or its top entry has
// another element type, which is dropped; the caller then allocates and
// counts a miss.
func getAcc[A any](ws *Workspaces, k int) (a A, ok bool) {
	if ws == nil {
		return a, false
	}
	ws.drvGets.Add(1)
	a, ok = ws.getBuf(&ws.acc[k]).(A)
	return a, ok
}

// miss counts a fetch that had to allocate.
func (ws *Workspaces) miss() {
	if ws != nil {
		ws.drvMisses.Add(1)
	}
}

// putAcc retains accumulator a of kind k, charged by its capacity.
func putAcc(ws *Workspaces, k int, a interface{ Bytes() int64 }) {
	if ws != nil {
		ws.putBuf(&ws.acc[k], a, a.Bytes())
	}
}

func wsGetMSA[T any](ws *Workspaces, ncols int) *accum.MSA[T] {
	if v, ok := getAcc[*accum.MSA[T]](ws, accMSA); ok {
		if v.Len() < ncols {
			ws.miss()
			v.Resize(ncols)
		}
		return v
	}
	ws.miss()
	return accum.NewMSA[T](ncols)
}

func wsPutMSA[T any](ws *Workspaces, a *accum.MSA[T]) { putAcc(ws, accMSA, a) }

func wsGetHash[T any](ws *Workspaces, capHint int) *accum.Hash[T] {
	if v, ok := getAcc[*accum.Hash[T]](ws, accHash); ok {
		return v
	}
	ws.miss()
	return accum.NewHash[T](capHint)
}

func wsPutHash[T any](ws *Workspaces, h *accum.Hash[T]) { putAcc(ws, accHash, h) }

func wsGetMCA[T any](ws *Workspaces, capHint int) *accum.MCA[T] {
	if v, ok := getAcc[*accum.MCA[T]](ws, accMCA); ok {
		return v
	}
	ws.miss()
	return accum.NewMCA[T](capHint)
}

func wsPutMCA[T any](ws *Workspaces, c *accum.MCA[T]) { putAcc(ws, accMCA, c) }

func wsGetHeap(ws *Workspaces) *accum.IterHeap {
	if v, ok := getAcc[*accum.IterHeap](ws, accHeap); ok {
		v.Reset()
		return v
	}
	ws.miss()
	return &accum.IterHeap{}
}

func wsPutHeap(ws *Workspaces, h *accum.IterHeap) { putAcc(ws, accHeap, h) }

func wsGetBitmap(ws *Workspaces, nbits int) *matrix.Bitmap {
	if v, ok := getAcc[*matrix.Bitmap](ws, accBitmap); ok {
		if v.Bits() < nbits {
			ws.miss()
			v.Resize(nbits)
		}
		return v
	}
	ws.miss()
	return matrix.NewBitmap(nbits)
}

func wsPutBitmap(ws *Workspaces, b *matrix.Bitmap) { putAcc(ws, accBitmap, b) }
