// Package apps implements the paper's three evaluation benchmarks (§7-§8)
// on top of masked SpGEMM: Triangle Counting, k-truss, and batched Brandes
// Betweenness Centrality. Each application is written against the Engine
// abstraction so it can run with any of the paper's 12 algorithm variants
// or with the SuiteSparse:GraphBLAS-style baselines, exactly as the paper
// swaps the Masked SpGEMM implementation inside fixed GraphBLAS-style
// application code.
//
// Engines are constructed from a Session, which scopes the state an engine
// sweep shares: one set of execution options (thread budget, context,
// workspace arena) and one plan cache, so a 14-engine comparison or an
// iterative application analyzes each product once instead of once per
// engine.
package apps

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/planner"
	"repro/internal/semiring"
)

// Index mirrors matrix.Index.
type Index = matrix.Index

// Engine is one masked SpGEMM implementation under test.
type Engine struct {
	// Name is the label used in result tables ("MSA-1P", "SS:SAXPY", ...).
	Name string
	// Mult computes M .* (A·B) (or the complement form) over sr.
	Mult func(m *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64], complement bool) (*matrix.CSR[float64], error)
	// PairCount, if non-nil, counts the triangles of the square graph g
	// without materializing a product: core.MaskedPairCount(Tail, W,
	// Tail, Bits, WalkEnd, Walks) over g's count operand
	// (planner.Cache.PairOperand),
	// whose hub bitmaps and tails split the rows of matrix.DegreeTril(g).
	// It fills Triangles, Flops and MaskedTime. Only the Auto engine sets
	// it; TriangleCount uses it when present and Mult otherwise, so the
	// fixed variants and the baselines still time the kernels they name.
	PairCount func(g *matrix.CSR[float64]) (TCResult, error)
	// workers returns the worker count the engine's options allow at the
	// moment of the call (core.Options.Workers, so an arbiter grant bounds
	// it), for the steps an application runs beside the engine's products,
	// such as building TriangleCount's operand. Nil means one worker.
	workers func() int
}

// Session scopes engine construction. Every engine built from one session
// runs with the session's options (thread budget, cancellation context,
// pooled workspaces — a single Options value governs the paper's variants
// and the baselines alike, since baseline.Options is the same type) and
// the Auto engines share the session's plan cache, so an engine sweep over
// the same operands analyzes each product once, not once per engine.
type Session struct {
	// Opt is the execution options every engine of the session runs with.
	Opt core.Options
	// Cache is the session's plan cache, consulted by every Auto engine.
	Cache *planner.Cache
}

// NewSession returns a session running with the given options and a fresh
// plan cache.
func NewSession(opt core.Options) *Session {
	return &Session{Opt: opt, Cache: planner.NewCache()}
}

// EngineVariant wraps one of the paper's algorithm variants.
func (s *Session) EngineVariant(v core.Variant) Engine {
	opt := s.Opt
	return Engine{
		Name:    v.Name(),
		workers: opt.Workers,
		Mult: func(m *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64], complement bool) (*matrix.CSR[float64], error) {
			o := opt
			o.Complement = complement
			return core.MaskedSpGEMM(v, m, a, b, sr, o)
		},
	}
}

// EngineAuto is the planner-backed engine: every masked product is analyzed
// (or recalled from the session's plan cache — iterative applications like
// BC re-multiply against evolving masks over a static graph) and executed
// with the variant, or per-row-block variant mix, the §8 cost model selects.
//
// Its PairCount gets g's count operand from the session's plan cache
// (planner.Cache.PairOperand): built on the call's workers, and kept from
// the second count of the same graph arrays on, so a repeated count runs
// only core.MaskedPairCount, scheduled over the operand's row-cost
// profile, which also gave the flops. It passes the operand's hub
// bitmaps, walk ends and walk list through, so on a skewed graph the
// count ANDs a bitmap per edge where it would walk the hub entries of a
// row, and walks the tails of only the edges whose two tails are not
// empty, as one list per row where the operand keeps one (see
// matrix.PairOperand). It makes no plan and so no plan entry, hit or
// miss: the operand is all a count derives, and it lives in the cache's
// operand memo, not among the plans.
func (s *Session) EngineAuto() Engine {
	opt, cache := s.Opt, s.Cache
	return Engine{
		Name:    "Auto",
		workers: opt.Workers,
		Mult: func(m *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64], complement bool) (*matrix.CSR[float64], error) {
			o := opt
			o.Complement = complement
			p := cache.Analyze(m, a.Pattern(), b.Pattern(), o)
			return planner.Execute(p, m, a, b, sr, o, nil)
		},
		PairCount: func(g *matrix.CSR[float64]) (TCResult, error) {
			o := opt
			o.Complement = false
			if err := o.Err(); err != nil {
				return TCResult{}, err
			}
			op := cache.PairOperand(g.Pattern(), o.Workers())
			o.RowCosts = core.NewRowCosts(op.CostPrefix, op.MaxRowCost)
			t0 := time.Now()
			n, err := core.MaskedPairCount(op.Tail, op.W, op.Tail, op.Bits, op.WalkEnd, op.Walks, o)
			return TCResult{Triangles: n, Flops: op.Flops, MaskedTime: time.Since(t0)}, err
		},
	}
}

// EngineSSDot wraps the SS:DOT baseline. It does not support complemented
// masks (the paper excludes SS:DOT from the BC comparison).
func (s *Session) EngineSSDot() Engine {
	opt := s.Opt
	return Engine{
		Name:    "SS:DOT",
		workers: opt.Workers,
		Mult: func(m *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64], complement bool) (*matrix.CSR[float64], error) {
			if complement {
				return nil, fmt.Errorf("apps: SS:DOT does not support complemented masks")
			}
			c := baseline.SSDot(m, a, b, sr, opt)
			if err := opt.Err(); err != nil {
				return nil, err // cancelled mid-loop: the partial result is garbage
			}
			return c, nil
		},
	}
}

// EngineSSSaxpy wraps the SS:SAXPY baseline.
func (s *Session) EngineSSSaxpy() Engine {
	opt := s.Opt
	return Engine{
		Name:    "SS:SAXPY",
		workers: opt.Workers,
		Mult: func(m *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64], complement bool) (*matrix.CSR[float64], error) {
			o := opt
			o.Complement = complement
			c := baseline.SSSaxpy(m, a, b, sr, o)
			if err := o.Err(); err != nil {
				return nil, err
			}
			return c, nil
		},
	}
}
