package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/accum"
	"repro/internal/matrix"
)

// Workspaces is a session-scoped arena of reusable accumulator scratch.
// The expensive per-worker state of the kernels — the MSA's two dense
// length-ncols arrays, hash tables, MCA buffers and heap iterator storage —
// is taken from the arena when a call starts and returned when its workers
// finish, so iterative callers (BFS, BC, MCL, k-truss sweeps) stop paying
// an O(ncols) allocation per worker per call.
//
// Workspaces is safe for concurrent use (sync.Pool underneath) and a nil
// *Workspaces disables pooling entirely: every helper falls back to a fresh
// allocation, which is the pre-session behavior. Pooled entries hold no row
// state between calls — each kernel leaves its accumulator fully reset (the
// per-row reset discipline the kernels already follow), so reuse is
// bit-identical to fresh scratch.
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
// The pools store concrete *accum.MSA[T] etc. values for whatever element
// type the calls use; a stored entry of a different T than the requester's
// is discarded and replaced by a fresh allocation (sessions are in practice
// monomorphic in T, so this never happens on the hot path).
type Workspaces struct {
	msa    sync.Pool // *accum.MSA[T]
	hash   sync.Pool // *accum.Hash[T]
	mca    sync.Pool // *accum.MCA[T]
	heap   sync.Pool // *accum.IterHeap
	bitmap sync.Pool // *matrix.Bitmap (mask-probe words, element-type free)

	// Size-classed driver buffer pools. The phase drivers take their whole
	// scratch — per-row counts and offsets (int64), the one-phase
	// bound-binned column buffer (Index) and value buffer (T) — from these
	// pools, so a warmed session's multiplies allocate nothing at the driver
	// layer beyond the returned output. Class c holds buffers with capacity
	// in [2^c, 2^(c+1)); buffers are allocated with capacity rounded up to
	// the class boundary, so a stable working size always lands back in the
	// class it is fetched from.
	i64 [poolClasses]sync.Pool // *bufI64
	idx [poolClasses]sync.Pool // *bufIdx
	val [poolClasses]sync.Pool // *bufVal[T]

	// drvGets/drvMisses instrument the driver pools: a "miss" is a Get that
	// had to allocate. Warmed steady state shows zero new misses; the alloc
	// tests and the schedule bench study assert exactly that.
	drvGets, drvMisses atomic.Int64
}

// poolClasses bounds the size-class ladder (2^47 elements ≫ any host).
const poolClasses = 48

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

// PoolStats reports the driver buffer pools' Get calls and the subset that
// had to allocate. Misses stop growing once a session is warm; the
// difference across a warmed call is the "driver-layer allocations" the
// alloc tests pin to zero. It travels through the unified session stats and
// the /metrics exporter.
type PoolStats struct {
	// Gets counts driver buffer fetches; Misses the subset that had to
	// allocate. Both are monotonic over the workspace's lifetime.
	Gets, Misses int64
}

// PoolStatsSnapshot returns the driver pool counters.
func (ws *Workspaces) PoolStatsSnapshot() PoolStats {
	return PoolStats{Gets: ws.drvGets.Load(), Misses: ws.drvMisses.Load()}
}

func wsGetI64(ws *Workspaces, n int) *bufI64 {
	if ws != nil {
		ws.drvGets.Add(1)
		c := sizeClass(n)
		if v, ok := ws.i64[c].Get().(*bufI64); ok && cap(v.s) >= n {
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
		ws.i64[sizeClass(cap(b.s))].Put(b)
	}
}

func wsGetIdx(ws *Workspaces, n int) *bufIdx {
	if ws != nil {
		ws.drvGets.Add(1)
		c := sizeClass(n)
		if v, ok := ws.idx[c].Get().(*bufIdx); ok && cap(v.s) >= n {
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
		ws.idx[sizeClass(cap(b.s))].Put(b)
	}
}

func wsGetVal[T any](ws *Workspaces, n int) *bufVal[T] {
	if ws != nil {
		ws.drvGets.Add(1)
		c := sizeClass(n)
		if v, ok := ws.val[c].Get().(*bufVal[T]); ok && cap(v.s) >= n {
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
		ws.val[sizeClass(cap(b.s))].Put(b)
	}
}

// NewWorkspaces returns an empty arena.
func NewWorkspaces() *Workspaces { return &Workspaces{} }

func wsGetMSA[T any](ws *Workspaces, ncols int) *accum.MSA[T] {
	if ws != nil {
		if v, ok := ws.msa.Get().(*accum.MSA[T]); ok {
			v.Resize(ncols)
			return v
		}
	}
	return accum.NewMSA[T](ncols)
}

func wsPutMSA[T any](ws *Workspaces, a *accum.MSA[T]) {
	if ws != nil && a != nil {
		ws.msa.Put(a)
	}
}

func wsGetHash[T any](ws *Workspaces, capHint int) *accum.Hash[T] {
	if ws != nil {
		if v, ok := ws.hash.Get().(*accum.Hash[T]); ok {
			v.SetLoadFactor(1, 4) // restore the paper's default sizing
			return v
		}
	}
	return accum.NewHash[T](capHint)
}

func wsPutHash[T any](ws *Workspaces, h *accum.Hash[T]) {
	if ws != nil && h != nil {
		ws.hash.Put(h)
	}
}

func wsGetMCA[T any](ws *Workspaces, capHint int) *accum.MCA[T] {
	if ws != nil {
		if v, ok := ws.mca.Get().(*accum.MCA[T]); ok {
			return v
		}
	}
	return accum.NewMCA[T](capHint)
}

func wsPutMCA[T any](ws *Workspaces, c *accum.MCA[T]) {
	if ws != nil && c != nil {
		ws.mca.Put(c)
	}
}

func wsGetHeap(ws *Workspaces) *accum.IterHeap {
	if ws != nil {
		if v, ok := ws.heap.Get().(*accum.IterHeap); ok {
			v.Reset()
			return v
		}
	}
	return &accum.IterHeap{}
}

func wsPutHeap(ws *Workspaces, h *accum.IterHeap) {
	if ws != nil && h != nil {
		ws.heap.Put(h)
	}
}

func wsGetBitmap(ws *Workspaces, nbits int) *matrix.Bitmap {
	if ws != nil {
		if v, ok := ws.bitmap.Get().(*matrix.Bitmap); ok {
			v.Resize(nbits)
			return v
		}
	}
	return matrix.NewBitmap(nbits)
}

func wsPutBitmap(ws *Workspaces, b *matrix.Bitmap) {
	if ws != nil && b != nil {
		ws.bitmap.Put(b)
	}
}
