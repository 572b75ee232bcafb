package planner

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// fillDistinct analyzes n products with distinct B identities (each Clone
// is a fresh backing array) and returns the B operands in insertion order.
func fillDistinct(c *Cache, g *matrix.CSR[float64], n int) []*matrix.CSR[float64] {
	bs := make([]*matrix.CSR[float64], n)
	for i := range bs {
		bs[i] = g.Clone()
		c.Analyze(g.Pattern(), g.Pattern(), bs[i].Pattern(), core.Options{})
	}
	return bs
}

// TestCacheCapacityBound: the cache never grows past its configured entry
// bound, and evictions are counted.
func TestCacheCapacityBound(t *testing.T) {
	const capacity = 64
	c := NewCacheCapacity(capacity)
	g := grgen.ErdosRenyi(64, 2, 30)
	fillDistinct(c, g, capacity+100)
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("cache grew to %d entries, bound is %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("overfilling a bounded cache must evict")
	}
	if st.Misses != capacity+100 {
		t.Fatalf("distinct products: %d misses, want %d", st.Misses, capacity+100)
	}
}

// TestCacheDefaultCapacity: NewCache uses the documented default bound.
func TestCacheDefaultCapacity(t *testing.T) {
	if got := NewCache().Stats().Capacity; got != DefaultCacheCapacity {
		t.Fatalf("default capacity %d, want %d", got, DefaultCacheCapacity)
	}
}

// TestCacheLRUOrder: within one shard, a touched (recently hit) entry
// survives eviction pressure while untouched older entries are dropped.
func TestCacheLRUOrder(t *testing.T) {
	c := NewCacheCapacity(2 * cacheShards) // two entries per shard
	g := grgen.ErdosRenyi(64, 2, 31)
	b1 := g.Clone()
	key := func(b *matrix.CSR[float64]) *cacheShard {
		return c.shard(cacheKey{
			b: fp(b.Pattern()), mRows: g.NRows, mCols: g.NCols,
			mBucket: bucket(g.NNZ()), aBucket: bucket(g.NNZ()), aRows: g.NRows,
		})
	}
	c.Analyze(g.Pattern(), g.Pattern(), b1.Pattern(), core.Options{})
	// Insert a second entry into b1's shard, then touch b1 and insert a
	// third: the LRU tail (the untouched second entry) must be evicted,
	// not the freshly-hit first one.
	var b2, b3 *matrix.CSR[float64]
	for {
		b2 = g.Clone()
		if key(b2) == key(b1) {
			break
		}
	}
	c.Analyze(g.Pattern(), g.Pattern(), b2.Pattern(), core.Options{})
	if p := c.Analyze(g.Pattern(), g.Pattern(), b1.Pattern(), core.Options{}); !p.CacheHit {
		t.Fatal("b1 must still be resident")
	}
	for {
		b3 = g.Clone()
		if key(b3) == key(b1) {
			break
		}
	}
	c.Analyze(g.Pattern(), g.Pattern(), b3.Pattern(), core.Options{})
	if p := c.Analyze(g.Pattern(), g.Pattern(), b1.Pattern(), core.Options{}); !p.CacheHit {
		t.Fatal("LRU evicted the recently-used entry instead of the stale one")
	}
	if p := c.Analyze(g.Pattern(), g.Pattern(), b2.Pattern(), core.Options{}); p.CacheHit {
		t.Fatal("the stale entry should have been the eviction victim")
	}
}

// TestCacheStatsMonotonic: hits/misses/evictions never decrease across any
// sequence of operations, evictions included.
func TestCacheStatsMonotonic(t *testing.T) {
	c := NewCacheCapacity(16)
	g := grgen.ErdosRenyi(64, 2, 32)
	prev := c.Stats()
	check := func(step string) {
		st := c.Stats()
		if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Evictions < prev.Evictions {
			t.Fatalf("%s: counters ran backwards: %+v after %+v", step, st, prev)
		}
		prev = st
	}
	fillDistinct(c, g, 40)
	check("fill")
	c.Analyze(g.Pattern(), g.Pattern(), g.Pattern(), core.Options{})
	c.Analyze(g.Pattern(), g.Pattern(), g.Pattern(), core.Options{})
	check("hit")
	fillDistinct(c, g, 40)
	check("refill")
}

// TestCacheConcurrentInstall races cold Analyze calls of one product: the
// serving shape where several requests miss on the same key at once and
// each installs its own analysis over the resident entry. Interleavings are
// nondeterministic, so only invariants are asserted: the counters never run
// backwards while the race is on, every call counts once as a hit or a
// miss, one entry stays resident, and every plan handed out carries the
// cache whose memo a later hit's Execute reads. Run under -race.
func TestCacheConcurrentInstall(t *testing.T) {
	g := grgen.ErdosRenyi(64, 2, 1)
	analyze := func(c *Cache) *Plan {
		return c.Analyze(g.Pattern(), g.Pattern(), g.Pattern(), core.Options{})
	}
	const rounds, goroutines = 20, 8
	raced := 0
	for r := 0; r < rounds; r++ {
		c := NewCache()
		start, done, watched := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var backwards string
		go func() {
			defer close(watched)
			prev := c.Stats()
			for {
				st := c.Stats()
				if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Evictions < prev.Evictions {
					backwards = fmt.Sprintf("counters ran backwards: %+v after %+v", st, prev)
					return
				}
				prev = st
				select {
				case <-done:
					return
				default:
				}
			}
		}()
		plans := make([]*Plan, goroutines)
		var wg sync.WaitGroup
		for gi := range plans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				plans[gi] = analyze(c)
			}()
		}
		close(start)
		wg.Wait()
		close(done)
		<-watched
		if backwards != "" {
			t.Fatalf("round %d: %s", r, backwards)
		}

		st := c.Stats()
		if st.Hits+st.Misses != goroutines || st.Misses < 1 {
			t.Fatalf("round %d: %d hits + %d misses for %d calls", r, st.Hits, st.Misses, goroutines)
		}
		if st.Misses > 1 {
			raced++
		}
		if st.Entries != 1 {
			t.Fatalf("round %d: %d resident entries, want 1", r, st.Entries)
		}
		for gi, p := range plans {
			if p.cache != c {
				t.Fatalf("round %d: plan %d does not carry its cache", r, gi)
			}
		}
		if hit := analyze(c); !hit.CacheHit || hit.cache != c {
			t.Fatalf("round %d: later hit = %v, carries its cache = %v", r, hit.CacheHit, hit.cache == c)
		}
	}
	t.Logf("%d of %d rounds installed over a concurrent miss", raced, rounds)
}

// TestEvictedPlanStillExecutes: eviction unlinks a plan from the cache but
// must never invalidate it — plans are immutable, so a caller that fetched
// a plan before eviction keeps executing it correctly afterwards. This is
// the serving-layer guarantee that a multiply in flight cannot be broken by
// cache pressure from other tenants.
func TestEvictedPlanStillExecutes(t *testing.T) {
	c := NewCacheCapacity(cacheShards)
	g := grgen.RMAT(8, 8, 33)
	mask := matrix.Tril(g).Pattern()
	opt := core.Options{Threads: 2}
	p := c.Analyze(mask, g.Pattern(), g.Pattern(), opt)
	// Evict everything by flooding the cache with distinct products.
	fillDistinct(c, grgen.ErdosRenyi(64, 2, 34), 20*cacheShards)
	if hit, ok := c.Peek(mask, g.Pattern(), g.Pattern(), opt); ok && hit == p {
		t.Skip("flood did not evict the plan under test; shard landed empty")
	}
	sr := semiring.Arithmetic()
	got, err := Execute(p, mask, g, g, sr, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.MaskedSpGEMM(core.Variant{Alg: core.MSA, Phase: core.OnePhase}, mask, g, g, sr, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, want, func(x, y float64) bool { return x == y }) {
		t.Fatal("evicted plan executed incorrectly")
	}
}

// TestCachePeek: Peek reports residency without analyzing, and without
// moving the hit/miss counters.
func TestCachePeek(t *testing.T) {
	c := NewCache()
	g := grgen.ErdosRenyi(128, 4, 35)
	opt := core.Options{}
	if _, ok := c.Peek(g.Pattern(), g.Pattern(), g.Pattern(), opt); ok {
		t.Fatal("empty cache cannot peek a plan")
	}
	before := c.Stats()
	if before.Hits != 0 || before.Misses != 0 {
		t.Fatalf("peek moved counters: %+v", before)
	}
	c.Analyze(g.Pattern(), g.Pattern(), g.Pattern(), opt)
	p, ok := c.Peek(g.Pattern(), g.Pattern(), g.Pattern(), opt)
	if !ok || p == nil {
		t.Fatal("resident plan must peek")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("peek must not count as hit/miss: %+v", st)
	}
}

// TestCacheConcurrent: concurrent Analyze calls over a mix of resident and
// distinct products race-cleanly, keep the bound, and every returned plan
// executes to the correct product.
func TestCacheConcurrent(t *testing.T) {
	c := NewCacheCapacity(32)
	g := grgen.RMAT(7, 4, 36)
	mask := matrix.Tril(g).Pattern()
	sr := semiring.Arithmetic()
	want, err := core.MaskedSpGEMM(core.Variant{Alg: core.MSA, Phase: core.OnePhase}, mask, g, g, sr, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				var p *Plan
				if i%3 == 0 {
					// Distinct identity: forces insert + possible eviction.
					b := g.Clone()
					p = c.Analyze(mask, g.Pattern(), b.Pattern(), core.Options{})
					got, err := Execute(p, mask, g, b, sr, core.Options{Threads: 1}, nil)
					if err != nil {
						errs <- err
						return
					}
					if !matrix.Equal(got, want, func(x, y float64) bool { return x == y }) {
						t.Error("concurrent clone product diverged")
						return
					}
					continue
				}
				p = c.Analyze(mask, g.Pattern(), g.Pattern(), core.Options{})
				got, err := Execute(p, mask, g, g, sr, core.Options{Threads: 1}, nil)
				if err != nil {
					errs <- err
					return
				}
				if !matrix.Equal(got, want, func(x, y float64) bool { return x == y }) {
					t.Error("concurrent cached product diverged")
					return
				}
			}
		}(uint64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("concurrent fill broke the bound: %d > %d", st.Entries, st.Capacity)
	}
}
