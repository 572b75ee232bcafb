package masked

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/planner"
)

// Session is the unit of resource ownership of this package: it holds the
// plan cache, the thread budget, and pooled accumulator workspaces that a
// sequence of masked products shares. The paper's applications — and the
// serving workloads the repository grows toward — are iterative loops that
// re-multiply against a static graph; scoping this state to an explicit
// session (instead of process-wide globals and per-call allocations) makes
// each loop's cost proportional to the multiplies it runs, keeps separate
// workloads isolated from each other, and lets every operation be cancelled
// mid-multiply through its context.
//
//	s := masked.NewSession(masked.WithThreads(8))
//	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
//	defer cancel()
//	c, err := s.Multiply(ctx, l.Pattern(), l, l, masked.WithAccumulate(masked.PlusPair()))
//
// Operations are configured by descriptor options (Op): WithVariant pins
// one of the paper's 12 variants, WithAuto (the default) routes through the
// adaptive planner, WithComplement flips the mask, WithThreads bounds
// parallelism, WithAccumulate selects the semiring of Multiply. The
// row-cost profile's skew chooses the schedule.
// Options passed to NewSession become the session's defaults; options
// passed to an operation override them for that call. The same descriptor
// vocabulary drives Multiply, the application methods (TriangleCount,
// KTruss, BC, BFS) and the baseline engines
// (SSDot, SSSaxpy).
//
// A Session is safe for concurrent use by multiple goroutines and needs no
// Close: its workspaces are reclaimed by the garbage collector when the
// session becomes unreachable. Beyond plain concurrent method calls, the
// serving layer (MultiplyBatch, TryMultiply) admits several multiplies at once
// and splits the session's thread budget across them: each request's worker
// share is arbitrated from the planner's cost estimate (WithInflight bounds
// concurrency, WithPlanCacheCapacity bounds the plan cache), and identical
// concurrent requests are coalesced into one computation.
//
// Operands are read, never copied, and a session remembers them by
// identity: the plan cache keys on B's storage and trusts its sorted rows,
// plan cache hits keep B's transpose and the fact that M and A have sorted
// rows and reuse them while the same arrays come back, a graph's second
// adaptive TriangleCount keeps the graph's count operand (its
// degree-oriented pattern and edge list) for every later count of the
// same arrays, and coalescing keys on operand identity. So an operand
// must not be mutated while the session may see it again; pass a fresh matrix (Clone) instead. Nor may
// its memory be reused for another matrix while the session may see that
// one (a pooled buffer, say, which stays alive between uses): the session
// would take it for the old operand. The derived state keeps no operand
// alive and is released once the operand's arrays are collected.
type Session struct {
	def   opSpec
	ws    *core.Workspaces
	cache *planner.Cache
	// arb splits the session thread budget across concurrent serving
	// requests; one arbiter per session, so overlapping MultiplyBatch and
	// TryMultiply calls share one budget instead of multiplying it.
	arb *parallel.Arbiter
	// flight coalesces identical in-flight requests (single-flight).
	flight   map[flightKey]*flightCall
	flightMu sync.Mutex
	// panics counts request-boundary panics the serving layer recovered
	// (Stats.Panics).
	panics atomic.Int64
}

// Op configures a session or one operation. Ops are created by the With*
// constructors (WithVariant, WithAuto, WithComplement, WithThreads,
// WithAccumulate, WithInflight, WithPlanCacheCapacity) and applied in
// order, so later options win.
type Op func(*opSpec)

// opSpec is the resolved descriptor an operation runs with.
type opSpec struct {
	variant    Variant
	pinned     bool // WithVariant: run variant instead of planning
	complement bool
	threads    int
	inflight   int // WithInflight: serving admission cap
	cacheCap   int // WithPlanCacheCapacity: plan cache bound (NewSession only)
	sr         Semiring
	hasSR      bool
}

func (d opSpec) apply(opts []Op) opSpec {
	for _, o := range opts {
		o(&d)
	}
	return d
}

// semiring returns the descriptor's semiring (Arithmetic when unset).
func (d opSpec) semiring() Semiring {
	if d.hasSR {
		return d.sr
	}
	return Arithmetic()
}

// WithVariant pins one of the paper's 12 algorithm variants instead of
// letting the planner choose. All variants produce bit-identical results;
// pinning only fixes the execution strategy.
func WithVariant(v Variant) Op {
	return func(d *opSpec) { d.variant, d.pinned = v, true }
}

// WithAuto routes the operation through the adaptive planner (the §8 cost
// model with the session's plan cache) — the default; useful to override a
// session-level WithVariant for one call.
func WithAuto() Op {
	return func(d *opSpec) { d.pinned = false }
}

// WithComplement computes against the complement of the mask:
// C = ¬M .* (A·B). MCA variants do not support complemented masks.
func WithComplement() Op {
	return func(d *opSpec) { d.complement = true }
}

// WithThreads bounds the operation to n worker goroutines (0 = GOMAXPROCS).
// One thread budget governs the paper's variants and the baselines alike.
func WithThreads(n int) Op {
	return func(d *opSpec) { d.threads = n }
}

// WithAccumulate selects the semiring Multiply accumulates over (default
// Arithmetic). The application methods fix their own semirings and ignore
// it.
func WithAccumulate(sr Semiring) Op {
	return func(d *opSpec) { d.hasSR, d.sr = true, sr }
}

// WithInflight bounds how many requests MultiplyBatch and TryMultiply run
// concurrently. On NewSession it sets the session-wide admission cap (the
// arbiter refuses to start more multiplies than this at once, whatever mix
// of batch and single calls is active); on a MultiplyBatch call it
// additionally bounds that call's own concurrency. 0 (the default)
// admits one request per budgeted worker thread — more in-flight CPU-bound
// requests than workers cannot raise throughput. Single multiplies ignore
// it.
func WithInflight(k int) Op {
	return func(d *opSpec) { d.inflight = k }
}

// WithPlanCacheCapacity bounds the session plan cache to roughly n entries
// (LRU-evicted per shard; 0 = planner.DefaultCacheCapacity). It only takes
// effect on NewSession — the cache is constructed once per session — and is
// ignored on individual operations.
func WithPlanCacheCapacity(n int) Op {
	return func(d *opSpec) { d.cacheCap = n }
}

// NewSession returns a session with its own plan cache, workspace arena and
// serving arbiter. The given options become the session's defaults for
// every operation.
func NewSession(opts ...Op) *Session {
	def := opSpec{}.apply(opts)
	return &Session{
		def:    def,
		ws:     core.NewWorkspaces(),
		cache:  planner.NewCacheCapacity(def.cacheCap),
		arb:    parallel.NewArbiter(def.threads, def.inflight),
		flight: make(map[flightKey]*flightCall),
	}
}

// options resolves a descriptor into the core execution options, attaching
// the session's workspaces and the operation's context.
func (s *Session) options(ctx context.Context, d opSpec) Options {
	return Options{
		Threads:    d.threads,
		Complement: d.complement,
		Ctx:        ctx,
		Workspaces: s.ws,
	}
}

// engine builds the apps engine a descriptor names: the pinned variant, or
// the planner-backed Auto engine sharing the session's plan cache.
func (s *Session) engine(ctx context.Context, d opSpec) apps.Engine {
	as := (&apps.Session{Opt: s.options(ctx, d), Cache: s.cache})
	if d.pinned {
		return as.EngineVariant(d.variant)
	}
	return as.EngineAuto()
}

// Multiply computes C = M .* (A·B) (or the complement form under
// WithComplement). By default the variant is planned adaptively with the
// session's cache; WithVariant pins it. The semiring defaults to Arithmetic
// (WithAccumulate overrides). Cancelling ctx stops the product mid-multiply
// and returns ctx.Err().
func (s *Session) Multiply(ctx context.Context, m *Pattern, a, b *Matrix, opts ...Op) (*Matrix, error) {
	c, _, err := s.MultiplyAuto(ctx, m, a, b, opts...)
	return c, err
}

// MultiplyAuto is Multiply returning also the executed plan (nil when the
// variant was pinned with WithVariant).
func (s *Session) MultiplyAuto(ctx context.Context, m *Pattern, a, b *Matrix, opts ...Op) (*Matrix, *Plan, error) {
	d := s.def.apply(opts)
	return s.execute(d, s.options(ctx, d), m, a, b)
}

// execute runs one resolved multiply under the given options: the pinned
// variant, or the planner path through the session cache. The single-call entry points and the serving layer
// both run through it, so the two paths cannot drift apart.
func (s *Session) execute(d opSpec, o Options, m *Pattern, a, b *Matrix) (*Matrix, *Plan, error) {
	// Chaos point: a panic on the kernel path, under the serving layer's
	// recover barriers and the arbiter grant. Inert unless armed.
	if faultinject.Fire(faultinject.PointKernelPanic) {
		panic("faultinject: " + faultinject.PointKernelPanic)
	}
	if d.pinned {
		c, err := core.MaskedSpGEMM(d.variant, m, a, b, d.semiring(), o)
		return c, nil, err
	}
	p := s.cache.Analyze(m, a.Pattern(), b.Pattern(), o)
	var stats []core.BlockStat
	c, err := planner.Execute(p, m, a, b, d.semiring(), o, &stats)
	q := stampOps(p, d.semiring())
	if err == nil {
		// Stamp the drivers' measured per-block kernel time on the returned
		// copy (never the shared cached plan) so Explain can show predicted
		// vs actual.
		var actual int64
		blockNs := make([]int64, len(stats))
		for i, bs := range stats {
			actual += bs.ElapsedNs
			blockNs[i] = bs.ElapsedNs
		}
		q = q.WithExec(planner.ExecStats{ActualNs: actual, BlockNs: blockNs})
	}
	return c, q, err
}

// stampOps returns a shallow copy of p labeled with the operator path
// (core.OpsInlined / core.OpsFuncPtr) the kernels take for sr. Plans are
// cached per operand shape, not per semiring, and cache hits hand out
// shared pointers — so the label goes on a copy, never on the cached plan.
func stampOps(p *Plan, sr Semiring) *Plan {
	if p == nil {
		return nil
	}
	q := *p
	q.Ops = core.OpsMode(sr)
	return &q
}

// Explain analyzes C = M .* (A·B) without executing it and returns the
// plan the session's adaptive path would run (consulting and filling the
// session's plan cache).
func (s *Session) Explain(m *Pattern, a, b *Matrix, opts ...Op) *Plan {
	d := s.def.apply(opts)
	p := s.cache.Analyze(m, a.Pattern(), b.Pattern(), s.options(context.Background(), d))
	return stampOps(p, d.semiring())
}

// --- Applications ---

// TriangleCount counts triangles via sum(L .* (L·L)) with degree-descending
// relabeling (§8.2). On the adaptive path nothing is relabeled: the count
// runs in g's own labels, each edge oriented toward its higher-degree end,
// and for every edge walks the shorter of its endpoints' rows against the
// longer one's marks, summing mask hits without building the product or a
// plan. A count builds the operand it walks unless the session keeps one
// for g's arrays, which it does from their second count on (see the
// operand contract above), so a repeated count pays only the walk; no plan
// cache entry, hit or miss is made. A pinned variant (WithVariant) runs
// its product on the relabeled L and sums it. Both give the same count
// and flops. The operand is built on the call's thread budget
// (WithThreads) like the product, and does not depend on it. A non-square
// g is an error.
func (s *Session) TriangleCount(ctx context.Context, g *Matrix, opts ...Op) (TCResult, error) {
	d := s.def.apply(opts)
	return apps.TriangleCount(g, s.engine(ctx, d))
}

// KTruss computes the k-truss subgraph by iterated masked support counting
// (§8.3). Each round's masked product runs on the session's workspaces and
// plan cache; cancelling ctx aborts between or inside rounds. A
// non-square g is an error.
func (s *Session) KTruss(ctx context.Context, g *Matrix, k int, opts ...Op) (*Matrix, KTrussResult, error) {
	d := s.def.apply(opts)
	return apps.KTruss(g, k, s.engine(ctx, d))
}

// BC computes batched Brandes betweenness centrality contributions for the
// given sources (§8.4). The forward sweep uses complemented masks, so MCA
// variants return an error.
func (s *Session) BC(ctx context.Context, g *Matrix, sources []Index, opts ...Op) (BCResult, error) {
	d := s.def.apply(opts)
	return apps.BetweennessCentrality(g, sources, s.engine(ctx, d))
}

// BFS runs a single-source direction-optimized breadth-first search; every
// push/pull step honors ctx and reuses the session's workspaces.
//
// BFS is built on the vector primitive (SpGEVM), whose kernel is chosen
// per step by the push/pull direction heuristic — WithVariant/WithAuto do
// not apply here; WithThreads does.
func (s *Session) BFS(ctx context.Context, g *Matrix, source Index, opts ...Op) (BFSResult, error) {
	d := s.def.apply(opts)
	return apps.BFS(g, source, s.options(ctx, d))
}

// --- Baseline engines ---

// SSDot runs the SuiteSparse:GraphBLAS-style dot-product baseline under the
// session's descriptor (complemented masks unsupported).
func (s *Session) SSDot(ctx context.Context, m *Pattern, a, b *Matrix, opts ...Op) (*Matrix, error) {
	d := s.def.apply(opts)
	as := &apps.Session{Opt: s.options(ctx, d), Cache: s.cache}
	return as.EngineSSDot().Mult(m, a, b, d.semiring(), d.complement)
}

// SSSaxpy runs the SuiteSparse:GraphBLAS-style saxpy baseline (mask applied
// at gather, not during accumulation) under the session's descriptor.
func (s *Session) SSSaxpy(ctx context.Context, m *Pattern, a, b *Matrix, opts ...Op) (*Matrix, error) {
	d := s.def.apply(opts)
	as := &apps.Session{Opt: s.options(ctx, d), Cache: s.cache}
	return as.EngineSSSaxpy().Mult(m, a, b, d.semiring(), d.complement)
}
