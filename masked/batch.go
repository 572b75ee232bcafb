package masked

// The serving layer: entry points that admit several masked multiplies on
// one Session concurrently. Three mechanisms keep K in-flight requests from
// destroying each other's efficiency:
//
//   - admission: at most WithInflight (default: one per budgeted worker)
//     requests run at once, arbitrated session-wide so overlapping
//     MultiplyBatch and TryMultiply calls share one thread budget;
//   - arbitration: each admitted request gets a worker share proportional
//     to its planner cost estimate (small queries one goroutine, big
//     products the spare budget), and budget released by finishing
//     requests flows to running stragglers between their parallel stages
//     (parallel.Arbiter via core.Options.ThreadsFn);
//   - coalescing: identical concurrent requests — same operand identities,
//     mask mode and semiring — are computed once and share the one result
//     (single-flight). Sound because every execution path in this
//     repository is bit-identical: variant, phase, schedule and worker
//     count never change the output, so two requests that agree on
//     operands, mask mode and semiring have exactly one answer. Results
//     are immutable; treat a shared *Matrix as read-only, as everywhere
//     else in the API.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/parallel"
)

// BatchReq is one masked multiply of a batch:
// C = M .* (A·B) (or the complement form) under the session defaults
// overridden by Opts.
type BatchReq struct {
	// M is the mask; A and B the operands. All three must be non-nil.
	M *Pattern
	// A and B are the product operands.
	A, B *Matrix
	// Opts are per-request descriptor overrides (WithComplement,
	// WithAccumulate, WithVariant, ...), applied after the call-level and
	// session-level options.
	Opts []Op
}

// BatchRes is the outcome of one BatchReq.
type BatchRes struct {
	// C is the product, nil on error.
	C *Matrix
	// Plan is the executed plan (nil when the variant was pinned or the
	// request failed before planning).
	Plan *Plan
	// Err is the request error: an operand/validation error, a context
	// cancellation, or a kernel error. Coalesced requests share the
	// leader's outcome, error included.
	Err error
	// Workers is the arbitrated worker share the computation started with
	// (it may have grown mid-request as other requests finished). 0 for
	// requests that failed before admission.
	Workers int
	// Coalesced reports that this response shares the computation of an
	// identical concurrent request instead of having run its own.
	Coalesced bool
}

// flightKey identifies a coalescable computation. Operands count by
// identity (pointer), not content: serving traffic re-submits the same
// cached operand objects. Everything that can change the outcome — mask
// mode, semiring, and a pinned variant's support errors — is part of the
// key; pure performance knobs (threads, and the algorithms and schedule
// the planner picks) are not, because results are bit-identical across
// them.
//
// The semiring contributes its Name, its Zero, and its operator identity.
// Named semirings carry a comparable zero-size operator type (Semiring.Ops)
// and key on it directly: two independently constructed Arithmetic()
// values coalesce because both hold semiring.PlusTimesF64{}, with no
// reliance on func-pointer identity. Custom semirings (nil or
// non-comparable Ops) fall back to the code identity of their Add/Mul
// functions, so two different custom semirings never coalesce just because
// both left Name empty. The one residual caveat on that fallback path: two
// semirings built from the *same closure code* capturing different values,
// with equal Name and Zero, are indistinguishable — give custom semirings
// distinct Names (the field exists exactly to identify them).
type flightKey struct {
	m          *Pattern
	a, b       *Matrix
	complement bool
	pinned     bool
	variant    Variant
	sr         string
	srZero     float64
	srOps      any // comparable operator type; srAdd/srMul stay zero
	srAdd      uintptr
	srMul      uintptr
}

// flightCall is one in-flight computation awaited by its coalesced
// followers.
type flightCall struct {
	done    chan struct{}
	c       *Matrix
	plan    *Plan
	err     error
	workers int
}

// reqKey derives the coalescing key of a resolved request.
func reqKey(d opSpec, m *Pattern, a, b *Matrix) flightKey {
	sr := d.semiring()
	k := flightKey{
		m: m, a: a, b: b, complement: d.complement,
		sr: sr.Name, srZero: sr.Zero,
	}
	if sr.Ops != nil && reflect.TypeOf(sr.Ops).Comparable() {
		k.srOps = sr.Ops
	} else {
		k.srAdd = reflect.ValueOf(sr.Add).Pointer()
		k.srMul = reflect.ValueOf(sr.Mul).Pointer()
	}
	if d.pinned {
		k.pinned, k.variant = true, d.variant
	}
	return k
}

// reqCost estimates a request's cost for worker-share arbitration: the
// cached plan's scheduling cost total (flops + mask entries, the unit
// parallel.CostPerWorker is stated in) when the plan cache already
// holds a plan for the operands — the steady serving state — and a cheap
// structural proxy (total operand entries) on a cold cache or a pinned
// variant. Cost only shapes worker shares, never results.
func (s *Session) reqCost(d opSpec, o Options, m *Pattern, a, b *Matrix) int64 {
	if !d.pinned {
		if p, ok := s.cache.Peek(m, a.Pattern(), b.Pattern(), o); ok {
			if p.Costs != nil {
				return p.Costs.Total()
			}
			return p.Stats.Flops + p.Stats.NNZM
		}
	}
	return int64(m.NNZ() + a.NNZ() + b.NNZ())
}

// doOne runs one admitted, arbitrated, coalesced multiply. ctx
// cancellation while waiting for admission or for a coalesced leader
// returns ctx.Err(); cancellation mid-multiply is honored by the drivers
// as everywhere else.
//
// queue selects the admission discipline: true waits FIFO for a slot
// (MultiplyBatch), false refuses with ErrSaturated when the
// admission cap is full (TryMultiply, the network front end). Either way a
// request that coalesces onto an identical in-flight leader consumes no
// admission slot — a saturated server still answers duplicates of what it
// is already computing.
func (s *Session) doOne(ctx context.Context, d opSpec, m *Pattern, a, b *Matrix, queue bool) BatchRes {
	if m == nil || a == nil || b == nil {
		return BatchRes{Err: fmt.Errorf("masked: batch request with nil operand (M=%v A=%v B=%v non-nil wanted)", m != nil, a != nil, b != nil)}
	}
	key := reqKey(d, m, a, b)
	for {
		s.flightMu.Lock()
		if fc, ok := s.flight[key]; ok {
			s.flightMu.Unlock()
			select {
			case <-fc.done:
			case <-ctx.Done():
				return BatchRes{Err: ctx.Err()}
			}
			if fc.err != nil && (errors.Is(fc.err, context.Canceled) || errors.Is(fc.err, context.DeadlineExceeded) || errors.Is(fc.err, ErrSaturated)) {
				// The leader was cancelled by its *own* context or refused by
				// its *own* admission mode — transient, caller-specific
				// outcomes that must not be shared with a follower whose
				// context is healthy (or which is willing to wait). The
				// finished flight has already left the map, so retry: become
				// the new leader (or join one).
				continue
			}
			return BatchRes{C: fc.c, Plan: fc.plan, Err: fc.err, Workers: fc.workers, Coalesced: true}
		}
		fc := &flightCall{done: make(chan struct{})}
		s.flight[key] = fc
		s.flightMu.Unlock()
		return s.lead(ctx, d, m, a, b, key, fc, queue)
	}
}

// lead computes one flight as its leader and publishes the outcome to any
// coalesced followers.
func (s *Session) lead(ctx context.Context, d opSpec, m *Pattern, a, b *Matrix, key flightKey, fc *flightCall, queue bool) (res BatchRes) {
	defer func() {
		// Unlink before waking followers: a follower that rejects this
		// outcome (context error) must find the map slot free to retry.
		s.flightMu.Lock()
		delete(s.flight, key)
		s.flightMu.Unlock()
		close(fc.done)
	}()
	defer func() {
		// The request-boundary panic barrier. Deferred after the unlink
		// above, so it runs first (LIFO): fc.err is already the PanicError
		// when close(fc.done) wakes coalesced followers, and they share the
		// leader's panic outcome like any other error. The grant-release
		// defer below it has already run by this point, so a panicked
		// request leaks no arbiter budget. PanicError is not in doOne's
		// transient set — followers must not retry a deterministic panic.
		if v := recover(); v != nil {
			pe := newPanicError(v)
			s.panics.Add(1)
			fc.err = pe
			res = BatchRes{Err: pe, Workers: fc.workers}
		}
	}()

	// Chaos point: stall before admission, exercising saturation and drain
	// timing under slow admission. Inert unless a fault registry arms it.
	faultinject.Sleep(faultinject.PointArbiterStall)

	o := s.options(ctx, d)
	var grant *parallel.Grant
	var err error
	if queue {
		grant, err = s.arb.Acquire(ctx, s.reqCost(d, o, m, a, b))
	} else if g, ok := s.arb.TryAcquire(s.reqCost(d, o, m, a, b)); ok {
		grant = g
	} else {
		err = ErrSaturated
	}
	if err != nil {
		fc.err = err
		return BatchRes{Err: err}
	}
	defer grant.Release()
	// The grant's share can grow mid-request (budget rebalanced from
	// finished requests); the drivers observe growth at each parallel stage
	// through ThreadsFn. An explicit WithThreads on the call or request
	// stays a hard per-request ceiling on top of the arbitrated share, as
	// it is everywhere else in the API.
	workers := func() int {
		w := grant.Workers()
		if d.threads > 0 && w > d.threads {
			return d.threads
		}
		return w
	}
	fc.workers = workers()
	o.Threads = workers()
	o.ThreadsFn = workers

	fc.c, fc.plan, fc.err = s.execute(d, o, m, a, b)
	return BatchRes{C: fc.c, Plan: fc.plan, Err: fc.err, Workers: fc.workers}
}

// ErrSaturated is returned by TryMultiply when the session's admission
// cap (WithInflight) is fully occupied and the request would have to
// queue. Network front ends map it to 429 Too Many Requests with a
// Retry-After hint instead of building an unbounded backlog.
var ErrSaturated = errors.New("masked: serving admission saturated")

// TryMultiply is Multiply under non-queuing admission control: the
// request is admitted, arbitrated and coalesced exactly like a
// MultiplyBatch member, but when every WithInflight slot is occupied its
// response carries ErrSaturated immediately instead of waiting for one —
// the load-shedding entry point of the network serving layer. A request
// identical to one already in flight coalesces onto it and succeeds even
// under saturation (it consumes no admission slot). The serving metadata
// (Workers, Coalesced) is filled like a batch member's.
func (s *Session) TryMultiply(ctx context.Context, m *Pattern, a, b *Matrix, opts ...Op) BatchRes {
	d := s.def.apply(opts)
	return s.doOne(ctx, d, m, a, b, false)
}

// MultiplyBatch computes every request of the batch and returns the
// responses in request order. Up to WithInflight requests (from opts or
// the session default; 0 = one per budgeted worker — per-request Opts
// cannot change the cap, since it governs the whole call) run
// concurrently, each on an arbitrated share of the session thread budget;
// duplicate requests inside the batch — and concurrent with other batch or
// single-request traffic — are computed once and share the result (Coalesced
// reports it). Responses are bit-identical to running the requests
// sequentially one at a time.
//
// ctx cancellation applies to the whole batch: requests not yet admitted
// return ctx.Err(), in-flight ones are cancelled mid-multiply.
func (s *Session) MultiplyBatch(ctx context.Context, reqs []BatchReq, opts ...Op) []BatchRes {
	res := make([]BatchRes, len(reqs))
	call := s.def.apply(opts)
	k := s.inflightCap(call)
	// Batch-level dedup: group the requests by coalescing key so a hot
	// query repeated across the batch is computed exactly once, whether or
	// not its duplicates overlap in time (the in-flight single-flight in
	// doOne additionally coalesces against concurrent batches and single
	// requests).
	specs := make([]opSpec, len(reqs))
	groups := make(map[flightKey][]int, len(reqs))
	order := make([]flightKey, 0, len(reqs))
	for i := range reqs {
		specs[i] = call.apply(reqs[i].Opts)
		key := reqKey(specs[i], reqs[i].M, reqs[i].A, reqs[i].B)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], i)
	}
	sem := make(chan struct{}, k)
	var wg sync.WaitGroup
	for _, key := range order {
		members := groups[key]
		wg.Add(1)
		go func(members []int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			lead := members[0]
			r := s.protect(func() BatchRes {
				return s.doOne(ctx, specs[lead], reqs[lead].M, reqs[lead].A, reqs[lead].B, true)
			})
			res[lead] = r
			for _, i := range members[1:] {
				rr := r
				rr.Coalesced = true
				res[i] = rr
			}
		}(members)
	}
	wg.Wait()
	return res
}

// inflightCap resolves one batch call's concurrency bound: the
// call's WithInflight when set, clamped to the arbiter's session-wide
// admission cap (more local concurrency than the session admits is
// unreachable anyway).
func (s *Session) inflightCap(call opSpec) int {
	if k := call.inflight; k > 0 && k <= s.arb.MaxInflight() {
		return k
	}
	return s.arb.MaxInflight()
}

// Admission is one admitted non-multiply request's slot and worker share,
// handed out by TryAdmit. Release it when the request finishes.
type Admission struct {
	g *parallel.Grant
}

// Workers returns the admission's arbitrated worker share (its value at
// admission time; the serving layer may top it up while running, which
// Multiply-path executors observe but a fixed WithThreads does not).
func (a *Admission) Workers() int { return a.g.Workers() }

// Release returns the admission's slot and workers to the arbiter. Safe
// to call more than once.
func (a *Admission) Release() { a.g.Release() }

// TryAdmit claims one admission slot and a cost-proportional worker share
// from the session's serving arbiter without queuing: it refuses (nil,
// false) when every WithInflight slot is occupied. It is the admission
// primitive for session operations that do not go through the multiply
// serving path — the network front end admits application requests
// (triangle count, BFS) with it and runs them under
// WithThreads(adm.Workers()), so one saturated session answers 429 for
// every endpoint consistently. cost is the request's work estimate in the
// planner's flops unit (<= 0 means unknown).
func (s *Session) TryAdmit(cost int64) (*Admission, bool) {
	g, ok := s.arb.TryAcquire(cost)
	if !ok {
		return nil, false
	}
	return &Admission{g: g}, true
}
