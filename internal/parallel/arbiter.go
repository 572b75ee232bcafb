package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// Arbiter splits a fixed worker budget across concurrent requests — the
// admission/arbitration component of the serving layer. Without it, K
// concurrent multiplies on one session each fan out to the session's full
// thread budget and destroy each other's parallel efficiency (K×budget
// goroutines contending for budget cores); with it, each request is
// admitted (bounded in-flight count), granted a share of the budget
// proportional to its estimated cost, and the budget freed by finishing
// requests flows first to waiting requests and then to running stragglers.
//
// Shares are cost-proportional with a floor of one worker: a request
// estimated at cost c asks for ceil(c / CostPerWorker) workers — small
// queries cannot amortize fan-out overhead, so they get few workers — and
// receives at most its ask, at most the free budget minus a one-worker
// reservation per waiting request. Admission is governed by the in-flight
// cap alone: when the budget is fully granted, a newly admitted request is
// funded by *stealing* one worker from the richest running grant (whose
// executor sheds it at its next parallel stage), so a long request never
// gates admission. Release returns the share and tops up the running grant
// furthest below its ask ("idle workers rebalance to stragglers"); a
// top-up, like a steal, takes effect the next time the grant's executor
// consults Grant.Workers — the core drivers do so at every parallel stage
// of a multiply via Options.ThreadsFn.
//
// An Arbiter is safe for concurrent use. The zero value is not usable; use
// NewArbiter.
type Arbiter struct {
	mu       sync.Mutex
	budget   int // total workers across all grants
	maxIn    int // admission cap on in-flight grants
	free     int // workers not currently granted
	inflight int
	waiters  []*waiter           // FIFO admission queue
	active   map[*Grant]struct{} // grants that may be topped up or stolen from

	admitted, steals, topups, rejected atomic.Int64 // monotonic observability counters
}

// ArbiterStats is a point-in-time snapshot of an arbiter's accounting.
// Admitted, Steals and TopUps are monotonic; the rest describe the moment
// of the snapshot. Granted+Free always equals Budget.
type ArbiterStats struct {
	// Budget is the total worker budget; MaxInflight the admission cap.
	Budget, MaxInflight int
	// Free is the unassigned budget; Granted the sum of active shares;
	// Inflight the active grant count; Waiting the queued request count.
	Free, Granted, Inflight, Waiting int
	// Admitted counts grants ever issued; Steals counts workers moved from
	// a rich running grant to fund a new admission; TopUps counts workers
	// rebalanced from released grants to running stragglers; Rejected
	// counts TryAcquire calls refused because the admission cap was full
	// (the serving front end's 429s).
	Admitted, Steals, TopUps, Rejected int64
}

// Stats returns a snapshot of the arbiter's accounting.
func (a *Arbiter) Stats() ArbiterStats {
	a.mu.Lock()
	st := ArbiterStats{
		Budget:      a.budget,
		MaxInflight: a.maxIn,
		Free:        a.free,
		Inflight:    a.inflight,
		Waiting:     len(a.waiters),
		Admitted:    a.admitted.Load(),
		Steals:      a.steals.Load(),
		TopUps:      a.topups.Load(),
		Rejected:    a.rejected.Load(),
	}
	for g := range a.active {
		st.Granted += int(g.workers.Load())
	}
	a.mu.Unlock()
	return st
}

// waiter is one blocked Acquire: admit is closed (under a.mu) when the
// request is admitted and its grant assigned.
type waiter struct {
	want  int
	admit chan *Grant
}

// Grant is one admitted request's worker share. The share can grow while
// the request runs (rebalanced from released budget, never past the ask);
// executors observe growth by re-reading Workers between parallel stages.
type Grant struct {
	arb      *Arbiter
	want     int          // cost-derived ask; the share never exceeds it
	workers  atomic.Int32 // current share, ≥ 1 while active
	released atomic.Bool
}

// CostPerWorker is the estimated request cost (flops plus mask entries, the
// planner's Plan.Costs unit) one worker is granted for: a request asking
// for its k-th worker must bring at least k×CostPerWorker of work, so tiny
// queries run on one goroutine and only genuinely large products fan out.
// Sized so that a worker's spawn+sync overhead (~µs) is well under the
// work it contributes.
const CostPerWorker = 1 << 16

// NewArbiter returns an arbiter over the given worker budget (0 or less
// means Threads(0), i.e. GOMAXPROCS) admitting at most maxInflight
// concurrent grants (0 or less, or more than the budget, means one grant
// per budgeted worker — more in-flight CPU-bound requests than workers
// cannot increase throughput).
func NewArbiter(budget, maxInflight int) *Arbiter {
	budget = Threads(budget)
	if maxInflight <= 0 || maxInflight > budget {
		maxInflight = budget
	}
	return &Arbiter{
		budget: budget,
		maxIn:  maxInflight,
		free:   budget,
		active: make(map[*Grant]struct{}),
	}
}

// MaxInflight returns the admission cap.
func (a *Arbiter) MaxInflight() int { return a.maxIn }

// want converts a cost estimate to a worker ask.
func (a *Arbiter) want(cost int64) int {
	if cost <= 0 {
		// Unknown cost: ask for an equal split of the budget rather than
		// everything, so one unpriced request cannot starve the batch.
		w := a.budget / a.maxIn
		if w < 1 {
			w = 1
		}
		return w
	}
	w := int((cost + CostPerWorker - 1) / CostPerWorker)
	if w < 1 {
		w = 1
	}
	if w > a.budget {
		w = a.budget
	}
	return w
}

// Acquire admits one request with the given cost estimate (the planner's
// flops-based Plan.Costs total; <= 0 means unknown) and returns its worker
// grant. It blocks while the in-flight cap is reached, honoring ctx: a
// cancellation while waiting returns ctx.Err() and no grant. The caller
// must Release the grant when its request finishes.
func (a *Arbiter) Acquire(ctx context.Context, cost int64) (*Grant, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	a.mu.Lock()
	want := a.want(cost)
	if len(a.waiters) == 0 && a.inflight < a.maxIn {
		g := a.admitLocked(want)
		a.mu.Unlock()
		return g, nil
	}
	w := &waiter{want: want, admit: make(chan *Grant, 1)}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case g := <-w.admit:
		return g, nil
	case <-done:
		a.mu.Lock()
		// Remove w from the queue unless a Release admitted it concurrently.
		for i, q := range a.waiters {
			if q == w {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				a.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		a.mu.Unlock()
		// Already admitted: take the grant and hand it back.
		g := <-w.admit
		g.Release()
		return nil, ctx.Err()
	}
}

// TryAcquire is the non-queuing form of Acquire: it admits the request
// immediately when a slot is free and otherwise refuses it (nil, false)
// without waiting — the admission-control primitive of the network front
// end, which must answer a saturated burst with 429s rather than build an
// unbounded queue. A refusal also reports that requests are already
// waiting in Acquire's FIFO: TryAcquire never jumps that queue. Refusals
// are counted in ArbiterStats.Rejected.
func (a *Arbiter) TryAcquire(cost int64) (*Grant, bool) {
	a.mu.Lock()
	if len(a.waiters) == 0 && a.inflight < a.maxIn {
		g := a.admitLocked(a.want(cost))
		a.mu.Unlock()
		return g, true
	}
	a.mu.Unlock()
	a.rejected.Add(1)
	return nil, false
}

// admitLocked assigns a share to a newly admitted request: its ask, capped
// to the free budget minus a one-worker reservation per waiting admissible
// request (so a burst of arrivals all start promptly instead of the first
// one hoarding the whole budget), with a floor of one worker. When nothing
// is free the floor worker is stolen from the richest running grant — one
// always exists with more than one worker, because maxInflight ≤ budget
// means all-singleton grants fill the admission cap first.
func (a *Arbiter) admitLocked(want int) *Grant {
	reserve := len(a.waiters)
	if slots := a.maxIn - a.inflight - 1; reserve > slots {
		reserve = slots
	}
	if reserve < 0 {
		reserve = 0
	}
	n := a.free - reserve
	if n > want {
		n = want
	}
	switch {
	case n >= 1:
		a.free -= n
	case a.free >= 1: // dip into the reservation rather than steal
		n = 1
		a.free--
	default:
		n = 1
		a.stealLocked()
	}
	a.inflight++
	a.admitted.Add(1)
	g := &Grant{arb: a, want: want}
	g.workers.Store(int32(n))
	a.active[g] = struct{}{}
	return g
}

// stealLocked funds one worker by shrinking the richest active grant; the
// shrink is observed at that grant's next parallel stage. Falls back to
// transient oversubscription by one worker in the (unreachable, see
// admitLocked) case where every active grant is already a singleton.
func (a *Arbiter) stealLocked() {
	var richest *Grant
	most := int32(1)
	for g := range a.active {
		if w := g.workers.Load(); w > most {
			most, richest = w, g
		}
	}
	if richest != nil {
		richest.workers.Add(-1)
		a.steals.Add(1)
	}
}

// rebalanceLocked distributes free budget: first admit waiters in FIFO
// order while slots and budget remain, then top up the running grants
// furthest below their ask. Called after every Release.
func (a *Arbiter) rebalanceLocked() {
	for len(a.waiters) > 0 && a.inflight < a.maxIn {
		w := a.waiters[0]
		a.waiters = a.waiters[1:]
		w.admit <- a.admitLocked(w.want)
	}
	for a.free > 0 {
		// Straggler = the active grant with the largest unmet ask.
		var straggler *Grant
		deficit := 0
		for g := range a.active {
			if d := g.want - int(g.workers.Load()); d > deficit {
				deficit, straggler = d, g
			}
		}
		if straggler == nil {
			return
		}
		give := deficit
		if give > a.free {
			give = a.free
		}
		a.free -= give
		straggler.workers.Add(int32(give))
		a.topups.Add(int64(give))
	}
}

// Workers returns the grant's current share. Executors should consult it at
// every parallel stage (core wires it through Options.ThreadsFn) so top-ups
// from finished requests take effect mid-request.
func (g *Grant) Workers() int {
	if g == nil {
		return 0
	}
	return int(g.workers.Load())
}

// Release returns the grant's workers to the arbiter and rebalances them
// onto waiting requests and running stragglers. Safe to call more than
// once; only the first call has effect.
func (g *Grant) Release() {
	if g == nil || !g.released.CompareAndSwap(false, true) {
		return
	}
	a := g.arb
	a.mu.Lock()
	a.free += int(g.workers.Load())
	a.inflight--
	delete(a.active, g)
	a.rebalanceLocked()
	a.mu.Unlock()
}
