package masked

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

func sameCSR(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil matrix (got %v, want %v)", label, got == nil, want == nil)
	}
	if !matrix.Equal(got, want, func(a, b float64) bool { return a == b }) {
		t.Fatalf("%s: results differ (got nnz=%d, want nnz=%d)", label, got.NNZ(), want.NNZ())
	}
}

// tcOperands returns the triangle-counting-shaped operands (L, L, mask L)
// of a power-law graph — the canonical iterative workload.
func tcOperands(scale, ef int, seed uint64) (*Pattern, *Matrix) {
	l := Tril(RMAT(scale, ef, seed))
	return l.Pattern(), l
}

// TestSessionPooledResultsBitIdentical: repeated calls on one session reuse
// pooled accumulator workspaces; results must be bit-identical to a fresh
// session's for every variant, the planner path, and both mask modes.
func TestSessionPooledResultsBitIdentical(t *testing.T) {
	ctx := context.Background()
	lp, l := tcOperands(9, 8, 42)
	for _, v := range Variants() {
		for _, comp := range []bool{false, true} {
			if comp && v.Alg == MCA {
				continue
			}
			ops := []Op{WithVariant(v), WithAccumulate(PlusPair())}
			if comp {
				ops = append(ops, WithComplement())
			}
			fresh, err := NewSession().Multiply(ctx, lp, l, l, ops...)
			if err != nil {
				t.Fatalf("%s fresh: %v", v.Name(), err)
			}
			s := NewSession()
			for rep := 0; rep < 3; rep++ {
				got, err := s.Multiply(ctx, lp, l, l, ops...)
				if err != nil {
					t.Fatalf("%s rep %d: %v", v.Name(), rep, err)
				}
				sameCSR(t, v.Name(), got, fresh)
			}
		}
	}
	// Planner path: warm cache + warm workspaces stay bit-identical.
	s := NewSession(WithAccumulate(PlusPair()))
	fresh, err := NewSession().Multiply(ctx, lp, l, l, WithAccumulate(PlusPair()))
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		got, err := s.Multiply(ctx, lp, l, l)
		if err != nil {
			t.Fatalf("auto rep %d: %v", rep, err)
		}
		sameCSR(t, "auto", got, fresh)
	}
	if s.Stats().Cache.Hits == 0 {
		t.Errorf("expected plan-cache hits on repeated session multiplies")
	}
}

// TestSessionPreCancelledContext: an operation on an already-cancelled
// context returns context.Canceled without doing the product.
func TestSessionPreCancelledContext(t *testing.T) {
	lp, l := tcOperands(12, 16, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession()
	start := time.Now()
	for name, call := range map[string]func() error{
		"Multiply": func() error {
			_, err := s.Multiply(ctx, lp, l, l, WithAccumulate(PlusPair()))
			return err
		},
		"Multiply/pinned": func() error {
			_, err := s.Multiply(ctx, lp, l, l, WithVariant(Variant{Alg: Hash, Phase: TwoPhase}))
			return err
		},
		"TriangleCount": func() error {
			_, err := s.TriangleCount(ctx, l)
			return err
		},
		"SSSaxpy": func() error {
			_, err := s.SSSaxpy(ctx, lp, l, l)
			return err
		},
	} {
		if err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled context: got %v, want context.Canceled", name, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-cancelled calls took %v; want a prompt return", elapsed)
	}
}

// TestSessionMidFlightCancel: cancelling the context while the product is
// in flight aborts it promptly (cooperatively, between scheduling chunks)
// and leaks no goroutines. The semiring's Mul signals the first multiply
// and then sleeps, so the full product would take minutes — a prompt
// return is unambiguous proof of mid-flight cancellation.
func TestSessionMidFlightCancel(t *testing.T) {
	lp, l := tcOperands(10, 8, 3)
	started := make(chan struct{})
	var once sync.Once
	slow := semiring.Semiring[float64]{
		Name: "slow-pair",
		Add:  func(x, y float64) float64 { return x + y },
		Mul: func(x, y float64) float64 {
			once.Do(func() { close(started) })
			time.Sleep(50 * time.Microsecond)
			return 1
		},
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-started
		cancel()
	}()
	s := NewSession()
	start := time.Now()
	_, err := s.Multiply(ctx, lp, l, l,
		WithAccumulate(slow), WithVariant(Variant{Alg: MSA, Phase: OnePhase}))
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("mid-flight cancel: got %v, want context.Canceled", err)
	}
	// Full product: ~flops × 50µs ≫ 30s. Workers only finish the chunk in
	// hand (64 rows by default), so a prompt return means the cancel was
	// honored.
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled multiply took %v; cancellation was not honored mid-flight", elapsed)
	}
	// No goroutine leak: workers drain once they observe the cancel.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked after cancelled multiply: %d before, %d after", before, now)
	}
}

// TestSessionReusesWorkspaceAllocations: a warm session performs strictly
// fewer allocations per multiply than fresh per-call state, on both the
// pinned-variant path (workspace pooling) and the planner path (workspace
// pooling + plan-cache hit). Thread count 1 keeps the counts deterministic.
func TestSessionReusesWorkspaceAllocations(t *testing.T) {
	ctx := context.Background()
	lp, l := tcOperands(10, 8, 9)
	msa := Variant{Alg: MSA, Phase: OnePhase}

	pinned := []Op{WithThreads(1), WithVariant(msa), WithAccumulate(PlusPair())}
	warm := NewSession(pinned...)
	if _, err := warm.Multiply(ctx, lp, l, l); err != nil {
		t.Fatal(err)
	}
	perWarm := testing.AllocsPerRun(10, func() {
		if _, err := warm.Multiply(ctx, lp, l, l); err != nil {
			t.Fatal(err)
		}
	})
	perFresh := testing.AllocsPerRun(10, func() {
		if _, err := NewSession(pinned...).Multiply(ctx, lp, l, l); err != nil {
			t.Fatal(err)
		}
	})
	if perWarm >= perFresh {
		t.Errorf("pinned: warm session allocs %.0f, fresh state %.0f; want strictly fewer", perWarm, perFresh)
	}

	auto := []Op{WithThreads(1), WithAccumulate(PlusPair())}
	warmAuto := NewSession(auto...)
	if _, err := warmAuto.Multiply(ctx, lp, l, l); err != nil {
		t.Fatal(err)
	}
	perWarmAuto := testing.AllocsPerRun(10, func() {
		if _, err := warmAuto.Multiply(ctx, lp, l, l); err != nil {
			t.Fatal(err)
		}
	})
	perFreshAuto := testing.AllocsPerRun(10, func() {
		if _, err := NewSession(auto...).Multiply(ctx, lp, l, l); err != nil {
			t.Fatal(err)
		}
	})
	if perWarmAuto >= perFreshAuto {
		t.Errorf("auto: warm session allocs %.0f, fresh state %.0f; want strictly fewer", perWarmAuto, perFreshAuto)
	}
}

// benchmarkIterativeApp runs the same iterative application (batched BC,
// whose forward sweep is one complement-masked SpGEMM per level) either on
// one long-lived session or on fresh per-call state. Compare the two with -benchmem: the
// session run allocates strictly less.
func benchmarkIterativeApp(b *testing.B, fresh bool) {
	g := RMAT(11, 8, 7)
	sources := []Index{0, 1, 2, 3, 4, 5, 6, 7}
	ctx := context.Background()
	sess := NewSession()
	if _, err := sess.BC(ctx, g, sources); err != nil { // warm the arenas
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sess
		if fresh {
			s = NewSession()
		}
		if _, err := s.BC(ctx, g, sources); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBCSession(b *testing.B)    { benchmarkIterativeApp(b, false) }
func BenchmarkBCFreshState(b *testing.B) { benchmarkIterativeApp(b, true) }

// benchmarkWarmedMultiplyDriverAllocs extends PR 2's session-vs-fresh alloc
// comparison with PR 4's absolute guarantee: once a session is warm, the
// phase drivers take every scratch buffer (per-row counts and offsets, the
// one-phase bound bins) from the pooled arena — zero driver-layer
// allocations per multiply, measured as workspace pool misses. -benchmem
// shows the remaining allocs/op, which are the returned output plus O(1)
// per-call bookkeeping, independent of the matrix size.
func benchmarkWarmedMultiplyDriverAllocs(b *testing.B, phase core.Phase) {
	ctx := context.Background()
	lp, l := tcOperands(10, 8, 15)
	s := NewSession(WithThreads(2), WithVariant(Variant{Alg: MSA, Phase: phase}), WithAccumulate(PlusPair()))
	for i := 0; i < 2; i++ { // warm plan cache and pools
		if _, err := s.Multiply(ctx, lp, l, l); err != nil {
			b.Fatal(err)
		}
	}
	missBefore := s.Stats().DriverPool.Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Multiply(ctx, lp, l, l); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if missAfter := s.Stats().DriverPool.Misses; missAfter != missBefore {
		b.Fatalf("warmed Session.Multiply (%s) performed %d driver-layer allocations (pool misses) over %d ops; want 0",
			phase, missAfter-missBefore, b.N)
	}
}

func BenchmarkSessionMultiplyDriverAllocs1P(b *testing.B) {
	benchmarkWarmedMultiplyDriverAllocs(b, OnePhase)
}
func BenchmarkSessionMultiplyDriverAllocs2P(b *testing.B) {
	benchmarkWarmedMultiplyDriverAllocs(b, TwoPhase)
}

// TestWarmedSessionZeroDriverAllocs is the deterministic (non-benchmark)
// form of the guarantee, covering both phases and the planner path.
func TestWarmedSessionZeroDriverAllocs(t *testing.T) {
	ctx := context.Background()
	lp, l := tcOperands(10, 8, 15)
	cases := map[string][]Op{
		"1P":   {WithVariant(Variant{Alg: MSA, Phase: OnePhase})},
		"2P":   {WithVariant(Variant{Alg: MSA, Phase: TwoPhase})},
		"auto": nil,
	}
	for name, ops := range cases {
		s := NewSession(append([]Op{WithThreads(2), WithAccumulate(PlusPair())}, ops...)...)
		for i := 0; i < 2; i++ {
			if _, err := s.Multiply(ctx, lp, l, l); err != nil {
				t.Fatal(err)
			}
		}
		missBefore := s.Stats().DriverPool.Misses
		for i := 0; i < 3; i++ {
			if _, err := s.Multiply(ctx, lp, l, l); err != nil {
				t.Fatal(err)
			}
		}
		if missAfter := s.Stats().DriverPool.Misses; missAfter != missBefore {
			t.Errorf("%s: warmed session made %d driver pool misses; want 0", name, missAfter-missBefore)
		}
	}
}

// TestWarmedScratchSurvivesGC: the session arena keeps kernel scratch
// across garbage collections, so a warmed multiply allocates as much right
// after two collections as it does warm — for every accumulator and for a
// complemented mask's bitmap probe (Hash on a mask of about 77 entries per
// row, which the fixed-variant path probes through the bitmap). One thread
// and GOMAXPROCS 1 keep the counts exact.
func TestWarmedScratchSurvivesGC(t *testing.T) {
	ctx := context.Background()
	lp, l := tcOperands(10, 8, 9)
	dense := grgen.Random01Mask(l.NRows, l.NCols, 80, 5)
	if core.AutoMaskRepRatio(Hash, true, int64(dense.NRows), int64(dense.NNZ()), int64(l.NNZ()), 0, 0, 1, 1) != core.RepBitmap {
		t.Fatal("test premise broken: the dense mask does not select the Hash bitmap")
	}
	pin := func(alg core.Algorithm) Op { return WithVariant(Variant{Alg: alg, Phase: OnePhase}) }
	cases := []struct {
		name string
		mask *Pattern
		ops  []Op
	}{
		{"MSA-1P", lp, []Op{pin(MSA)}},
		{"Hash-1P", lp, []Op{pin(Hash)}},
		{"MCA-1P", lp, []Op{pin(MCA)}},
		{"Heap-1P", lp, []Op{pin(Heap)}},
		{"Inner-1P", lp, []Op{pin(Inner)}},
		{"Hash-1P/complement/bitmap", dense, []Op{pin(Hash), WithComplement()}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range cases {
		s := NewSession(append([]Op{WithThreads(1), WithAccumulate(PlusPair())}, c.ops...)...)
		mallocs := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := s.Multiply(ctx, c.mask, l, l); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		mallocs() // cold: plan cache and arena
		mallocs()
		warm := mallocs()
		runtime.GC()
		runtime.GC()
		if got := mallocs(); got != warm {
			t.Errorf("%s: %d allocations per multiply after two GCs, %d warm; want equal", c.name, got, warm)
		}
	}
}

// TestTriangleCountLeavesPlanCache: the adaptive triangle count makes no
// plan for its relabeled operand, which is rebuilt on every call, so it
// never touches the plan cache. 300 counts on fresh graphs (more than the cache holds) leave the entry
// and eviction counts unchanged, and a hot Multiply plan stays resident:
// its next call is a hit.
func TestTriangleCountLeavesPlanCache(t *testing.T) {
	ctx := context.Background()
	s := NewSession(WithThreads(2))
	lp, l := tcOperands(8, 8, 1)
	if _, err := s.Multiply(ctx, lp, l, l, WithAccumulate(PlusPair())); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Cache
	for k := 0; k < 300; k++ {
		g := ErdosRenyi(64, 6, uint64(k+1))
		if _, err := s.TriangleCount(ctx, g); err != nil {
			t.Fatal(err)
		}
	}
	after := s.Stats().Cache
	if after.Entries != before.Entries || after.Evictions != before.Evictions {
		t.Fatalf("300 triangle counts moved the plan cache: entries %d → %d, evictions %d → %d",
			before.Entries, after.Entries, before.Evictions, after.Evictions)
	}
	if _, err := s.Multiply(ctx, lp, l, l, WithAccumulate(PlusPair())); err != nil {
		t.Fatal(err)
	}
	if hits := s.Stats().Cache.Hits; hits != after.Hits+1 {
		t.Fatalf("hot Multiply after the counts: hits %d → %d, want one hit", after.Hits, hits)
	}
}

// TestSessionStats checks the unified snapshot agrees with the three
// components it reads and that its monotonic counters move under load.
func TestSessionStats(t *testing.T) {
	s := NewSession(WithThreads(2))
	ctx := context.Background()
	g := ErdosRenyi(128, 6, 5)
	gp := g.Pattern()
	if _, err := s.Multiply(ctx, gp, g, g); err != nil {
		t.Fatal(err)
	}
	if r := s.TryMultiply(ctx, gp, g, g); r.Err != nil {
		t.Fatal(r.Err)
	}
	st := s.Stats()
	if c := s.cache.Stats(); st.Cache != c {
		t.Fatalf("Stats.Cache %+v != plan cache %+v", st.Cache, c)
	}
	if a := s.arb.Stats(); st.Arbiter != a {
		t.Fatalf("Stats.Arbiter %+v != arbiter %+v", st.Arbiter, a)
	}
	if p := s.ws.PoolStatsSnapshot(); st.DriverPool != p {
		t.Fatalf("Stats.DriverPool %+v != workspace pools %+v", st.DriverPool, p)
	}
	if st.Cache.Hits+st.Cache.Misses == 0 {
		t.Fatal("plan cache counters did not move")
	}
	if st.Arbiter.Admitted == 0 {
		t.Fatal("arbiter admitted counter did not move")
	}
	if st.DriverPool.Gets == 0 {
		t.Fatal("driver pool counters did not move")
	}
}

// TestSemiringByName checks the wire-protocol semiring vocabulary.
func TestSemiringByName(t *testing.T) {
	for _, name := range []string{"", "arithmetic", "plus-pair", "plus-pair-f64",
		"min-plus", "plus-second", "plus-first", "max-times"} {
		if _, err := SemiringByName(name); err != nil {
			t.Errorf("%q: %v", name, err)
		}
	}
	if _, err := SemiringByName("nope"); err == nil {
		t.Error("unknown name resolved")
	}
}

func TestBFSFacade(t *testing.T) {
	g := ErdosRenyi(200, 5, 41)
	res, err := NewSession().BFS(context.Background(), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Level) != 200 || res.Level[0] != 0 {
		t.Fatal("BFS levels")
	}
}
