package planner

import (
	"container/list"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Cache memoizes plans across calls. Iterative applications (BC's sweeps)
// re-multiply against a mask and frontier that change every sweep while the
// graph operand stays fixed; re-running the O(nnz(A)) analysis per
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
// A hit also reuses what earlier hits derived from the same operands (B's
// transpose, the fact that M and A have sorted rows), and a repeated
// triangle count the operand an earlier count of the same graph built (see
// PairOperand): the cache's memo keeps that state for exactly as long as
// the operand arrays it was derived from live (see memo). Callers must not
// mutate an operand the cache may see again.
type Cache struct {
	shards []cacheShard
	// perShard is the entry bound of each shard; the cache-wide capacity is
	// perShard * len(shards).
	perShard int
	// hits, misses and evictions are cache-wide and monotonic for the
	// lifetime of the cache.
	hits, misses, evictions atomic.Int64
	// The derived-state counters: transposes built and reused by hits'
	// Inner blocks, and hits' sortedness re-checks run and skipped.
	cscBuilds, cscReuses, sortChecks, sortSkips atomic.Int64
	// Count operands built by repeated counts and reused by later ones.
	pairBuilds, pairReuses atomic.Int64
	// memo holds the hits' derived operand state.
	memo memo
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
	mBucket      int8 // log2 bucket of nnz(M)
	aBucket      int8 // log2 bucket of nnz(A)
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
		mBucket:    bucket(m.NNZ()),
		aBucket:    bucket(a.NNZ()),
		aRows:      a.NRows,
	}
}

// Sharding and capacity defaults. 16 stripes keep lock hold times invisible
// up to far more concurrent requests than a session admits; the default
// capacity matches the pre-sharding bound (each entry pins its B operand's
// RowPtr array through the fingerprint pointer, so growth must be bounded
// in long-lived serving processes).
const (
	cacheShards     = 16
	defaultCacheCap = 256
)

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
	c := &Cache{shards: make([]cacheShard, cacheShards), perShard: per}
	for i := range c.shards {
		c.shards[i].plans = make(map[cacheKey]*list.Element)
	}
	c.memo.init()
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
	// Fibonacci fold so low-entropy inputs still spread across stripes.
	h *= 0x9e3779b97f4a7c15
	return &c.shards[h>>(64-4)] // top 4 bits: 16 shards
}

// CacheStats is a point-in-time snapshot of a plan cache's counters.
// Hits, Misses and Evictions are monotonic over the cache's lifetime, so
// two snapshots can be differenced to rate a time window. Entries is the
// current resident plan count.
type CacheStats struct {
	// Hits counts Analyze calls answered from the cache.
	Hits int64
	// Misses counts Analyze calls that ran the full analysis.
	Misses int64
	// Evictions counts plans dropped to keep a shard under its bound.
	Evictions int64
	// TransposeBuilds counts transposes of B a cache hit built for the
	// plan's Inner blocks (and kept while B lives); TransposeReuses the
	// hits that found a transpose built from the same B arrays.
	TransposeBuilds, TransposeReuses int64
	// SortRechecks counts hits whose plan needs sorted rows and that
	// scanned M or A; SortRechecksSkipped the hits that skipped the scan
	// because both were arrays an earlier hit found sorted.
	SortRechecks, SortRechecksSkipped int64
	// CountOperandBuilds counts triangle-count operands a repeated count
	// of a graph built (and kept while the graph's arrays live);
	// CountOperandReuses the counts that found one kept for the same
	// arrays. See Cache.PairOperand.
	CountOperandBuilds, CountOperandReuses int64
	// RetainedBytes is the bytes of the transposes and count operands kept
	// at snapshot time; it falls as the operands they were built from are
	// collected.
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
// against the current M and A before reuse, unless they are arrays an
// earlier hit found sorted; B is part of the key's identity, so its
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
	if p != nil && (!p.NeedsSortedRows() || c.rowsSorted(m, a, opt.Workers())) {
		c.hits.Add(1)
		hit := *p
		hit.CacheHit = true
		return &hit
	}
	p = AnalyzeModel(m, a, b, opt, c.Model())
	p.cache = c
	c.misses.Add(1)
	sh.mu.Lock()
	if el, ok := sh.plans[key]; ok {
		// Another request analyzed the same product while we did: the plans
		// are equivalent, so install ours in the resident entry (no pointer
		// identity is promised between Analyze results) and refresh its
		// recency.
		el.Value.(*cacheEntry).plan = p
		sh.lru.MoveToFront(el)
	} else {
		if sh.lru.Len() >= c.perShard {
			tail := sh.lru.Back()
			sh.lru.Remove(tail)
			delete(sh.plans, tail.Value.(*cacheEntry).key)
			c.evictions.Add(1)
		}
		sh.plans[key] = sh.lru.PushFront(&cacheEntry{key: key, plan: p})
	}
	sh.mu.Unlock()
	return p
}

// SetModel installs the cost model subsequent misses analyze with (nil
// resets to DefaultModel). Resident plans are not re-analyzed — their
// entries age out by LRU or bucket change — so a model is best installed
// before the first products, though a serving session can still swap
// models live without a stop-the-world.
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
// layer uses it to price a request for the worker-share arbitration (the
// plan's row-cost total, Plan.Costs.Total, or its flops plus nnz(M) when
// the plan has no cost profile) before deciding how many workers the real
// Analyze+Execute runs with.
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

		TransposeBuilds:     c.cscBuilds.Load(),
		TransposeReuses:     c.cscReuses.Load(),
		SortRechecks:        c.sortChecks.Load(),
		SortRechecksSkipped: c.sortSkips.Load(),
		CountOperandBuilds:  c.pairBuilds.Load(),
		CountOperandReuses:  c.pairReuses.Load(),
		RetainedBytes:       c.memo.m.Bytes(),

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
