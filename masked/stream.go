package masked

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/planner"
)

// Streaming (incremental) execution. A DeltaMatrix overlays a base graph
// with batched edge insert/delete logs; a DeltaProduct tracks one masked
// product over such overlays and Session.Update / Session.MultiplyDelta
// renew only the dirty-row frontier of each batch — the rows of M or A
// that changed plus each row i with A(i,k) != 0 for a changed B(k,j)
// whose column j the (possibly complemented) mask row i admits —
// splicing the renewed rows into the cached output. Rows outside the
// frontier reuse their previously computed output unchanged. Off
// plus-pair, the frontier rows are recomputed with their share of the
// product's own plan (Plan.Restrict), which is re-analyzed whenever an
// overlay's base moves; because every kernel produces bit-identical rows
// for identical inputs, the incremental output is bit-identical to a
// from-scratch multiply on the compacted operands (masked/stream_test.go
// and internal/core/delta_equiv_test.go assert this per stream prefix). A
// product pinned to PlusPair runs a kernel for its first product only:
// every later frontier row is its previous output row plus the count
// changes of the batches (core.DeltaProduct.Refresh), which is exact for
// integer counts and so gives the same bits.

// Update is one streamed edge mutation: set entry (Row, Col) to Val, or
// remove it when Delete is true. Deletes of absent entries are no-ops.
type Update = matrix.Update[float64]

// DeltaMatrix is a dynamic sparse matrix: an immutable base CSR overlaid
// with batched per-row insert/delete logs and a bounded merge threshold
// (see matrix.DeltaCSR). Build one with NewDeltaMatrix.
type DeltaMatrix = matrix.DeltaCSR[float64]

// NewDeltaMatrix wraps base — which must have sorted, duplicate-free rows
// and must not be mutated afterwards — in a delta overlay for streaming
// updates.
func NewDeltaMatrix(base *Matrix) (*DeltaMatrix, error) {
	return matrix.NewDeltaCSR(base)
}

// DeltaOperand selects which operand of a DeltaProduct an update batch
// targets (UpdateOperand); Update itself always targets DeltaAll.
type DeltaOperand = core.DeltaOperand

// Delta operand selectors.
const (
	// DeltaAll applies a batch to every distinct overlay of the product —
	// the graph-stream mode, where the mask and both operands are views of
	// one evolving graph.
	DeltaAll = core.DeltaAll
	// DeltaM targets the mask overlay only.
	DeltaM = core.DeltaM
	// DeltaA targets the A overlay only.
	DeltaA = core.DeltaA
	// DeltaB targets the B overlay only.
	DeltaB = core.DeltaB
)

// DeltaProduct is an incrementally maintained masked product
// C = M .* (A·B) over delta overlays, created by Session.NewDeltaProduct.
// Its descriptor (variant or Auto, complement, semiring, threads) is
// pinned at creation so every refresh of the product computes the same
// function. Update, MultiplyDelta, Compact and Output serialize on an
// internal lock, so a DeltaProduct is safe for concurrent use alongside the
// session's other operations.
type DeltaProduct struct {
	mu      sync.Mutex
	owner   *Session
	d       opSpec
	inner   *core.DeltaProduct[float64]
	m, a, b *DeltaMatrix
	// plan is the Auto plan frontier sub-products are cut from: the first
	// full product's, re-analyzed on the current operands once an overlay's
	// base no longer matches bases, the bases it was analyzed on. Nil on
	// pinned products and before the first refresh.
	plan  *Plan
	bases [3]*Matrix
}

// NewDeltaProduct tracks C = M .* (A·B) over the given overlays, which may
// alias each other (pass the same overlay three times for graph workloads
// like streaming triangle counting). The options pin the product's
// descriptor on top of the session defaults; the first Update or
// MultiplyDelta computes the full product, later calls renew only dirty
// frontiers (by count patches alone when the semiring is PlusPair). All content mutations must flow through
// Update/UpdateOperand — mutating an overlay directly desynchronizes the
// product's dirty-row tracking.
func (s *Session) NewDeltaProduct(m, a, b *DeltaMatrix, opts ...Op) *DeltaProduct {
	d := s.def.apply(opts)
	return &DeltaProduct{
		owner: s,
		d:     d,
		inner: core.NewDeltaProductComplement(m, a, b, d.complement, d.semiring()),
		m:     m, a: a, b: b,
	}
}

// Output returns the product's last refreshed output (nil before the first
// Update/MultiplyDelta). Callers must not mutate it.
func (p *DeltaProduct) Output() *Matrix {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inner.Output()
}

// Compact folds every overlay's pending logs into fresh bases. Content —
// and the next refresh's output — is unchanged; use it to bound
// merged-row read cost on long streams (see PERFORMANCE.md).
func (p *DeltaProduct) Compact() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inner.Compact()
}

// Update applies one batch of edge updates to every distinct overlay of
// the product (the graph-stream mode) and returns the refreshed output,
// recomputing only the dirty-row frontier. A batch with an out-of-range
// index is rejected whole, mutating nothing. A panic during the refresh is
// recovered at this boundary into a *PanicError with the batch retained in
// the dirty frontier, so a retried MultiplyDelta completes the update.
func (s *Session) Update(ctx context.Context, p *DeltaProduct, batch []Update) (*Matrix, error) {
	return s.UpdateOperand(ctx, p, DeltaAll, batch)
}

// UpdateOperand is Update targeting one operand overlay (DeltaM, DeltaA,
// DeltaB) instead of all of them — for products whose mask or operands
// evolve independently.
func (s *Session) UpdateOperand(ctx context.Context, p *DeltaProduct, op DeltaOperand, batch []Update) (*Matrix, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := s.owns(p); err != nil {
		return nil, err
	}
	if err := p.inner.Apply(op, batch); err != nil {
		return nil, err
	}
	return s.refreshLocked(ctx, p)
}

// MultiplyDelta brings the product's output up to date with its overlays'
// current content: the first call computes the full product through the
// session's plan cache, later calls recompute only the accumulated dirty
// frontier (no-op when clean). It is Update with an empty batch — use it
// to (re)compute after a recovered mid-update panic.
func (s *Session) MultiplyDelta(ctx context.Context, p *DeltaProduct) (*Matrix, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := s.owns(p); err != nil {
		return nil, err
	}
	return s.refreshLocked(ctx, p)
}

// owns guards against a product refreshing through a foreign session,
// which would silently split plan-cache and workspace ownership.
func (s *Session) owns(p *DeltaProduct) error {
	if p.owner != s {
		return fmt.Errorf("masked: delta product belongs to another session")
	}
	return nil
}

// refreshLocked refreshes p under its lock, recovering panics (the
// delta.apply chaos point and kernel-path panics alike) at this boundary:
// the dirty frontier survives a panic, so the caller can retry.
func (s *Session) refreshLocked(ctx context.Context, p *DeltaProduct) (c *Matrix, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			c, err = nil, newPanicError(v)
		}
	}()
	// Chaos point: a panic after the batch landed in the overlays but
	// before the incremental recompute. Inert unless armed.
	if faultinject.Fire(faultinject.PointDeltaApply) {
		panic("faultinject: " + faultinject.PointDeltaApply)
	}
	first := p.inner.Output() == nil
	c, _, err = p.inner.Refresh(func(msub *Pattern, asub, b *Matrix) (*Matrix, error) {
		o := s.options(ctx, p.d)
		if first {
			// The full initial product goes through the ordinary session
			// path: plan cache, execution stamp, chaos point.
			c, pl, err := s.execute(p.d, o, msub, asub, b)
			if err == nil {
				p.keepPlan(pl)
			}
			return c, err
		}
		return s.deltaExecute(p, o, msub, asub, b)
	})
	return c, err
}

// keepPlan records pl as the plan frontier sub-products are cut from,
// with the overlay bases it describes.
func (p *DeltaProduct) keepPlan(pl *Plan) {
	p.plan = pl
	p.bases = [3]*Matrix{p.m.Base(), p.a.Base(), p.b.Base()}
}

// deltaExecute runs one frontier sub-product of a product that is not
// pinned to PlusPair; a plus-pair product patches its frontier rows
// inside core.DeltaProduct.Refresh and never gets here after its first
// product. It mirrors Session.execute's two paths. The Auto path neither
// analyzes the extracted sub-operands nor touches the plan cache: it
// cuts the frontier rows out of the product's own plan (Plan.Restrict),
// so each row runs with the algorithm and mask representation its block
// of the full product chose, and is scheduled by its cost from the full
// product's profile. Once an overlay's base has moved (a compaction), the
// plan is first re-analyzed on the current full operands, outside the
// cache, which keeps it within one merge threshold of the content it
// plans. Unchanged rows never reach this path at all — their cached
// output rows are reused as-is.
func (s *Session) deltaExecute(p *DeltaProduct, o Options, m *Pattern, a, b *Matrix) (*Matrix, error) {
	if faultinject.Fire(faultinject.PointKernelPanic) {
		panic("faultinject: " + faultinject.PointKernelPanic)
	}
	d := p.d
	if d.pinned {
		return core.MaskedSpGEMM(d.variant, m, a, b, d.semiring(), o)
	}
	if p.plan == nil || p.bases != [3]*Matrix{p.m.Base(), p.a.Base(), p.b.Base()} {
		// The re-analysis reads fresh snapshots: b is the refresh's
		// recycled one, which must not outlive this call.
		p.keepPlan(planner.AnalyzeModel(p.m.Current().Pattern(), p.a.Current().Pattern(), p.b.Current().Pattern(), o, s.cache.Model()))
	}
	return planner.Execute(p.plan.Restrict(p.inner.Frontier()), m, a, b, d.semiring(), o, nil)
}
