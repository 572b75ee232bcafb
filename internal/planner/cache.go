package planner

import (
	"container/list"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Cache memoizes plans across calls. Iterative applications (BFS, BC, MCL,
// k-truss) re-multiply against a mask and frontier that change every sweep
// while the graph operand stays fixed; re-running the O(nnz(A)) analysis per
// sweep would waste exactly the overhead the planner is meant to hide.
//
// The key combines the *identity* of the static B operand (backing-array
// pointer, dimensions, nnz — all O(1)) with the mask dimensions, mask mode,
// and log2 size buckets of the changing M and A operands. Sweeps whose
// frontier stays in the same order of magnitude reuse the plan; when the
// frontier grows past a power of two the bucket changes and the call is
// re-analyzed, which is exactly when the right variant may change too.
//
// The cache is built for concurrent serving: entries are spread across
// lock-striped shards (a key visits exactly one shard, so concurrent
// lookups of different products rarely contend), each shard is bounded and
// evicts in LRU order, and the hit/miss/eviction counters are monotonic
// atomics — Stats taken at two points in time never runs backwards, so
// operators can difference snapshots. Eviction only unlinks a plan from the
// cache; plans are immutable after Analyze, so a caller holding an evicted
// plan can keep Executing it (see TestEvictedPlanStillExecutes).
//
// An entry also keeps what its hits derived from their operands: B's
// transpose for plans with an Inner block, and the M and A arrays it last
// found sorted. Both are reused only on exact identity — the very arrays,
// same data pointer and length, never a content fingerprint — and both
// are stored only on a cache hit, so a product seen once retains nothing
// beyond its key. The entry holds the arrays it compares against, so they
// cannot be freed and their addresses reused while it lives. Callers must
// not mutate an operand the cache may see again.
//
// That state keeps operands alive past their callers' use, so it is
// bounded in bytes, not only by the entry count: the transposes and the
// operand arrays they pin (all of B's but the RowPtr the key already pins,
// and the sorted M and A arrays) are charged against DefaultRetainBytes.
// A hit makes room by shedding the state of the entries whose state was
// least recently used; state larger than the whole budget is used for its
// own call and not kept, exactly as on a cold call. An entry that leaves
// the cache (eviction, invalidation, Reset) releases its charge.
type Cache struct {
	shards []cacheShard
	// perShard is the entry bound of each shard; the cache-wide capacity is
	// perShard * len(shards).
	perShard int
	// hits, misses and evictions are cache-wide and monotonic for the
	// lifetime of the cache (Reset drops entries, never history); records
	// and replans are the feedback loop's counters (Record observations and
	// feedback-triggered invalidations — see Record).
	hits, misses, evictions, records, replans atomic.Int64
	// The derived-state counters: transposes built and reused by hits'
	// Inner blocks, and hits' sortedness re-checks run and skipped.
	cscBuilds, cscReuses, sortChecks, sortSkips atomic.Int64
	// retainMu guards storing and releasing derived state: holders is the
	// set of entries holding some, retained their bytes (atomic so Stats
	// reads it unlocked) and retainCap its bound. tick orders the states'
	// uses for shedding (see keep). Lock order: a shard's mu, then retainMu.
	retainMu  sync.Mutex
	holders   map[*feedback]struct{}
	retained  atomic.Int64
	retainCap int64
	tick      atomic.Int64
	// model is the cost model misses analyze with; nil means DefaultModel.
	// Atomic so SetModel is safe against concurrent analyses; the *Model it
	// points to is immutable.
	model atomic.Pointer[Model]
}

// cacheShard is one lock stripe: a bounded map with LRU eviction order.
// lru.Front() is the most recently used entry.
type cacheShard struct {
	mu    sync.Mutex
	plans map[cacheKey]*list.Element // value: *cacheEntry
	lru   list.List
}

// cacheEntry is one cached plan with its key (needed to delete from the map
// when the LRU tail is evicted).
type cacheEntry struct {
	key  cacheKey
	plan *Plan
}

// fingerprint identifies a matrix by storage identity, not content: the
// pointer to its RowPtr backing array plus shape. Rebuilding an identical
// matrix misses the cache, which costs only a re-analysis.
type fingerprint struct {
	ptr          *Index
	nrows, ncols Index
	nnz          int
}

func fp(p *matrix.Pattern) fingerprint {
	f := fingerprint{nrows: p.NRows, ncols: p.NCols, nnz: p.NNZ()}
	if len(p.RowPtr) > 0 {
		f.ptr = &p.RowPtr[0]
	}
	return f
}

type cacheKey struct {
	b            fingerprint
	mRows, mCols Index
	complement   bool
	rep          core.MaskRep // caller-pinned mask representation (RepAuto when unpinned)
	sched        core.Sched   // caller-pinned scheduling policy (SchedAuto when unpinned)
	mBucket      int8         // log2 bucket of nnz(M)
	aBucket      int8         // log2 bucket of nnz(A)
	aRows        Index
}

func bucket(nnz int) int8 { return int8(bits.Len64(uint64(nnz))) }

// makeKey derives the cache key of one call — the single definition both
// Analyze and Peek use, so the two can never diverge on what plan identity
// means.
func makeKey(m, a, b *matrix.Pattern, opt core.Options) cacheKey {
	return cacheKey{
		b:          fp(b),
		mRows:      m.NRows,
		mCols:      m.NCols,
		complement: opt.Complement,
		rep:        opt.MaskRep,
		sched:      opt.Sched,
		mBucket:    bucket(m.NNZ()),
		aBucket:    bucket(a.NNZ()),
		aRows:      a.NRows,
	}
}

// Sharding and capacity defaults. 16 stripes keep lock hold times invisible
// up to far more concurrent requests than a session admits; the default
// capacity matches the pre-sharding bound (each entry pins its B operand's
// RowPtr array through the fingerprint pointer, and a hot entry also its
// transpose of B and the M and A arrays it last found sorted, so growth
// must be bounded in long-lived serving processes).
const (
	cacheShards     = 16
	defaultCacheCap = 256
)

// DefaultRetainBytes bounds the bytes a cache's entries keep alive for
// reuse by later hits: B's transposes and the operand arrays they were
// checked against (see Cache).
const DefaultRetainBytes = 64 << 20

// NewCache returns an empty plan cache with the default capacity
// (DefaultCacheCapacity entries), safe for concurrent use. Caches are
// session-scoped: masked.Session and apps.Session each own one, so
// concurrent workloads do not contend on (or evict) each other's plans.
// (A process-wide Shared cache existed before sessions; it was removed
// because a mutable global is exactly the wrong ownership for a serving
// system.)
func NewCache() *Cache { return NewCacheCapacity(0) }

// DefaultCacheCapacity is the entry bound NewCache uses.
const DefaultCacheCapacity = defaultCacheCap

// NewCacheCapacity returns an empty plan cache bounded to roughly the given
// number of entries (rounded up to a multiple of the shard count; <= 0
// means DefaultCacheCapacity). The bound is enforced per shard — capacity/
// shards entries each, LRU-evicted — so one hot product family cannot push
// every other tenant's plans out in one sweep.
func NewCacheCapacity(capacity int) *Cache {
	if capacity <= 0 {
		capacity = defaultCacheCap
	}
	per := (capacity + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &Cache{shards: make([]cacheShard, cacheShards), perShard: per,
		holders: make(map[*feedback]struct{}), retainCap: DefaultRetainBytes}
	for i := range c.shards {
		c.shards[i].plans = make(map[cacheKey]*list.Element)
	}
	return c
}

// shard maps a key to its lock stripe by mixing the value fields that vary
// across workloads (shape, nnz and the size buckets — the fingerprint
// pointer participates only in key equality, so the hash needs no unsafe
// pointer arithmetic; distinct operands almost always differ in shape or
// nnz anyway, and a stripe collision only shares a mutex, never an entry).
func (c *Cache) shard(k cacheKey) *cacheShard {
	h := uint64(k.b.nnz)
	h ^= uint64(k.b.nrows)<<32 | uint64(uint32(k.b.ncols))
	h ^= uint64(k.mRows) * 0x9e3779b97f4a7c15
	h ^= uint64(k.aRows) << 17
	h ^= uint64(k.mBucket)<<8 | uint64(k.aBucket)
	if k.complement {
		h ^= 0xabcd
	}
	h ^= uint64(k.rep)<<4 | uint64(k.sched)<<2
	// Fibonacci fold so low-entropy inputs still spread across stripes.
	h *= 0x9e3779b97f4a7c15
	return &c.shards[h>>(64-4)] // top 4 bits: 16 shards
}

// CacheStats is a point-in-time snapshot of a plan cache's counters.
// Hits, Misses and Evictions are monotonic over the cache's lifetime (Reset
// drops entries, not history), so two snapshots can be differenced to rate
// a time window. Entries is the current resident plan count.
type CacheStats struct {
	// Hits counts Analyze calls answered from the cache.
	Hits int64
	// Misses counts Analyze calls that ran the full analysis.
	Misses int64
	// Evictions counts plans dropped to keep a shard under its bound.
	Evictions int64
	// Records counts feedback observations folded into cached entries
	// (Cache.Record calls that were not ignored).
	Records int64
	// Replans counts entries invalidated by the prediction-error feedback
	// loop (sustained drift; the next Analyze of the product re-plans).
	Replans int64
	// TransposeBuilds counts transposes of B a cache hit built for the
	// plan's Inner blocks (and kept on its entry when RetainedBytes had
	// room); TransposeReuses the hits that found the entry's transpose
	// built from the same B arrays.
	TransposeBuilds, TransposeReuses int64
	// SortRechecks counts hits whose plan needs sorted rows and that
	// re-scanned M and A; SortRechecksSkipped the hits that skipped the
	// scan because M and A were the arrays the entry last found sorted.
	SortRechecks, SortRechecksSkipped int64
	// RetainedBytes is the bytes the entries' transposes and remembered
	// operand arrays hold at snapshot time, at most DefaultRetainBytes.
	RetainedBytes int64
	// Entries is the resident plan count at snapshot time.
	Entries int
	// Capacity is the cache-wide entry bound (perShard × Shards).
	Capacity int
	// Shards is the number of lock stripes.
	Shards int
}

// Analyze returns a cached plan for the operands if one exists, else runs
// the full analysis and stores the result. Cached plans are returned as
// shallow copies with CacheHit set.
//
// A cached plan whose kernels require sorted rows (the key buckets M and A
// only by size, and the sweep may present different matrices) is revalidated
// against the current M and A before reuse, unless they are the arrays the
// entry last found sorted; B is part of the key's identity, so its
// sortedness cannot have changed.
func (c *Cache) Analyze(m, a, b *matrix.Pattern, opt core.Options) *Plan {
	key := makeKey(m, a, b, opt)
	sh := c.shard(key)
	sh.mu.Lock()
	var p *Plan
	if el, ok := sh.plans[key]; ok {
		p = el.Value.(*cacheEntry).plan
		sh.lru.MoveToFront(el)
	}
	sh.mu.Unlock()
	if p != nil && (!p.NeedsSortedRows() || p.fb.rowsSorted(m, a, opt.Workers())) {
		c.hits.Add(1)
		hit := *p
		hit.CacheHit = true
		return &hit
	}
	p = AnalyzeModel(m, a, b, opt, c.Model())
	c.misses.Add(1)
	sh.mu.Lock()
	if el, ok := sh.plans[key]; ok {
		// Another request analyzed the same product while we did: the plans
		// are equivalent, so install ours in the resident entry (no pointer
		// identity is promised between Analyze results) and refresh its
		// recency. The entry's feedback state carries over — the plans
		// describe the same product, so its prediction history stays valid.
		p.fb = el.Value.(*cacheEntry).plan.fb
		el.Value.(*cacheEntry).plan = p
		sh.lru.MoveToFront(el)
	} else {
		if sh.lru.Len() >= c.perShard {
			tail := sh.lru.Back()
			sh.lru.Remove(tail)
			delete(sh.plans, tail.Value.(*cacheEntry).key)
			tail.Value.(*cacheEntry).plan.fb.drop()
			c.evictions.Add(1)
		}
		p.fb = &feedback{key: key, c: c}
		sh.plans[key] = sh.lru.PushFront(&cacheEntry{key: key, plan: p})
	}
	sh.mu.Unlock()
	return p
}

// SetModel installs the cost model subsequent misses analyze with (nil
// resets to DefaultModel). Resident plans are not re-analyzed — their
// entries age out by LRU, bucket change or feedback invalidation — so a
// model is best installed before the first products, though a serving
// session can still swap models live without a stop-the-world.
func (c *Cache) SetModel(m *Model) { c.model.Store(m) }

// Model returns the cost model cache misses analyze with (never nil).
func (c *Cache) Model() *Model {
	if m := c.model.Load(); m != nil {
		return m
	}
	return DefaultModel()
}

// Peek returns the cached plan for the operands without analyzing on a miss
// and without touching the hit/miss counters or the LRU order. The serving
// layer uses it to price a request (Plan.Stats.Flops feeds the worker-share
// arbitration) before deciding how many workers the real Analyze+Execute
// runs with.
func (c *Cache) Peek(m, a, b *matrix.Pattern, opt core.Options) (*Plan, bool) {
	key := makeKey(m, a, b, opt)
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.plans[key]; ok {
		return el.Value.(*cacheEntry).plan, true
	}
	return nil, false
}

// Stats returns a snapshot of the cache counters. Hits, Misses and
// Evictions never decrease over the cache's lifetime.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Records:   c.records.Load(),
		Replans:   c.replans.Load(),

		TransposeBuilds:     c.cscBuilds.Load(),
		TransposeReuses:     c.cscReuses.Load(),
		SortRechecks:        c.sortChecks.Load(),
		SortRechecksSkipped: c.sortSkips.Load(),
		RetainedBytes:       c.retained.Load(),

		Capacity: c.perShard * len(c.shards),
		Shards:   len(c.shards),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Entries += len(sh.plans)
		sh.mu.Unlock()
	}
	return st
}

// Reset drops all cached plans and the state they retain. The
// hit/miss/eviction counters are *not* reset: they are monotonic for the
// cache's lifetime so that stats snapshots can always be differenced (a
// serving dashboard must never see a counter run backwards).
func (c *Cache) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			el.Value.(*cacheEntry).plan.fb.drop()
		}
		sh.plans = make(map[cacheKey]*list.Element)
		sh.lru.Init()
		sh.mu.Unlock()
	}
}

// cscState is B's transpose with the B arrays it was built from. val is
// B's Val slice and csc the *matrix.CSC of the same element type; bytes is
// what the state is charged (see keep).
type cscState struct {
	rowPtr, col []Index
	val, csc    any
	bytes       int64
}

// sortedState is the M and A arrays an entry's hit last found sorted.
type sortedState struct {
	mRowPtr, mCol, aRowPtr, aCol []Index
	bytes                        int64
}

func (s *cscState) size() int64 {
	if s == nil {
		return 0
	}
	return s.bytes
}

func (s *sortedState) size() int64 {
	if s == nil {
		return 0
	}
	return s.bytes
}

// touch marks fb's state as used now.
func (fb *feedback) touch() { fb.used.Store(fb.c.tick.Add(1)) }

// release drops fb's derived state and returns its charge. Callers hold
// retainMu.
func (c *Cache) release(fb *feedback) {
	c.retained.Add(-fb.csc.Swap(nil).size() - fb.sorted.Swap(nil).size())
	delete(c.holders, fb)
}

// drop releases the derived state of an entry the cache unlinks. A copy of
// its plan may still execute, but keeps nothing more (see keep).
func (fb *feedback) drop() {
	c := fb.c
	c.retainMu.Lock()
	fb.dropped = true
	c.release(fb)
	c.retainMu.Unlock()
}

// keep stores s in slot, one of fb's state pointers, replacing what it
// holds, if s fits the budget. To make room it sheds the state of other
// entries, least recently used first. It keeps nothing for an entry the
// cache has unlinked or for state larger than the budget.
func keep[S any, P interface {
	*S
	size() int64
}](fb *feedback, slot *atomic.Pointer[S], s P) {
	c := fb.c
	c.retainMu.Lock()
	defer c.retainMu.Unlock()
	n, old := s.size(), P(slot.Load()).size()
	if fb.dropped || n > c.retainCap {
		return
	}
	for c.retained.Load()-old+n > c.retainCap {
		var lru *feedback
		for h := range c.holders {
			if h != fb && (lru == nil || h.used.Load() < lru.used.Load()) {
				lru = h
			}
		}
		if lru == nil {
			return
		}
		c.release(lru)
	}
	slot.Store((*S)(s))
	c.retained.Add(n - old)
	c.holders[fb] = struct{}{}
	fb.touch()
}

// sameArray reports whether x and y are the same array: the same data
// pointer and length. Empty slices are equal whatever their pointer.
func sameArray[E any](x, y []E) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// rowsSorted reports whether m and a have sorted rows, for a hit on the
// entry fb belongs to. When they are the arrays this entry last found
// sorted the scan is skipped; otherwise it runs, and arrays found sorted
// replace the entry's (see keep).
func (fb *feedback) rowsSorted(m, a *matrix.Pattern, threads int) bool {
	if s := fb.sorted.Load(); s != nil && sameArray(s.mRowPtr, m.RowPtr) && sameArray(s.mCol, m.Col) &&
		sameArray(s.aRowPtr, a.RowPtr) && sameArray(s.aCol, a.Col) {
		fb.c.sortSkips.Add(1)
		fb.touch()
		return true
	}
	fb.c.sortChecks.Add(1)
	if !sortedRows(m, threads) || !sortedRows(a, threads) {
		return false
	}
	s := &sortedState{mRowPtr: m.RowPtr, mCol: m.Col, aRowPtr: a.RowPtr, aCol: a.Col,
		bytes: int64(unsafe.Sizeof(Index(0))) * int64(len(m.RowPtr)+len(m.Col)+len(a.RowPtr)+len(a.Col))}
	keep(fb, &fb.sorted, s)
	return true
}

// cachedCSC returns B's transpose for a hit on the entry fb belongs to:
// the entry's own when it was built from the same B arrays, otherwise a
// new one, which replaces the entry's (see keep). Two concurrent first
// hits may both build; the later store wins, and neither waits for the
// other to build.
func cachedCSC[T any](fb *feedback, b *matrix.CSR[T]) *matrix.CSC[T] {
	if s := fb.csc.Load(); s != nil && sameArray(s.rowPtr, b.RowPtr) && sameArray(s.col, b.Col) {
		if val, ok := s.val.([]T); ok && sameArray(val, b.Val) {
			fb.c.cscReuses.Add(1)
			fb.touch()
			return s.csc.(*matrix.CSC[T])
		}
	}
	csc := matrix.ToCSC(b)
	fb.c.cscBuilds.Add(1)
	// Charged: the transpose and B's Col and Val, which it pins (the key
	// already pins B's RowPtr).
	var zero T
	idx, elem := int64(unsafe.Sizeof(Index(0))), int64(unsafe.Sizeof(zero))
	s := &cscState{rowPtr: b.RowPtr, col: b.Col, val: b.Val, csc: csc,
		bytes: idx*int64(len(csc.ColPtr)+len(csc.Row)+len(b.Col)) + elem*int64(len(csc.Val)+len(b.Val))}
	keep(fb, &fb.csc, s)
	return csc
}
