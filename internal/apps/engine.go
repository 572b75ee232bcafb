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
	// MultRep, if non-nil, is Mult carrying a mask-representation hint from
	// the application (k-truss and multi-source BFS know their mask's
	// density without a scan). The hint only applies when the engine's
	// session has not pinned a representation of its own, and kernels that
	// cannot exploit it demote it. Only the fixed-variant engines take
	// hints: the Auto engine's planner measures per-block density itself
	// (better information than the coarse hint), and the baselines have no
	// representation choice, so both leave MultRep nil.
	MultRep func(m *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64], complement bool, rep core.MaskRep) (*matrix.CSR[float64], error)
	// PairCount, if non-nil, returns sum(M .* (A·B)) over the plus-pair
	// semiring with a non-complemented mask, and flops(A·B), without
	// materializing the product. Only the Auto engine sets it; TriangleCount
	// uses it when present and Mult otherwise, so the fixed variants and
	// the baselines still time the kernels they name.
	PairCount func(m, a, b *matrix.Pattern) (count, flops int64, err error)
}

// mult runs the engine with a mask-representation hint, falling back to the
// plain path when the engine takes no hints or none is offered.
func (e Engine) mult(m *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64], complement bool, rep core.MaskRep) (*matrix.CSR[float64], error) {
	if e.MultRep != nil && rep != core.RepAuto {
		return e.MultRep(m, a, b, sr, complement, rep)
	}
	return e.Mult(m, a, b, sr, complement)
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

// WithOptions returns a derived session that runs with opt but shares the
// receiver's plan cache — the way a per-operation context or thread
// override is threaded into engine construction without losing cached
// plans.
func (s *Session) WithOptions(opt core.Options) *Session {
	return &Session{Opt: opt, Cache: s.Cache}
}

// EngineVariant wraps one of the paper's algorithm variants. With
// s.Opt.Auto set, the pinned variant is ignored and the call is routed
// through the adaptive planner instead (see EngineAuto).
func (s *Session) EngineVariant(v core.Variant) Engine {
	if s.Opt.Auto {
		return s.EngineAuto()
	}
	opt := s.Opt
	return Engine{
		Name: v.Name(),
		Mult: func(m *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64], complement bool) (*matrix.CSR[float64], error) {
			o := opt
			o.Complement = complement
			return core.MaskedSpGEMM(v, m, a, b, sr, o)
		},
		MultRep: func(m *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64], complement bool, rep core.MaskRep) (*matrix.CSR[float64], error) {
			o := opt
			o.Complement = complement
			if o.MaskRep == core.RepAuto { // a session pin wins over the app's hint
				o.MaskRep = core.AdoptMaskRepHint(v.Alg, rep, complement)
			}
			return core.MaskedSpGEMM(v, m, a, b, sr, o)
		},
	}
}

// EngineAuto is the planner-backed engine: every masked product is analyzed
// (or recalled from the session's plan cache — iterative applications like
// BFS, BC, MCL and k-truss re-multiply against evolving masks over a static
// graph) and executed with the variant, or per-row-block variant mix, the
// §8 cost model selects.
//
// Its PairCount is core.MaskedPairCount scheduled over the row-cost profile
// of core.ComputeRowCosts, whose total also yields the flops. It neither
// plans nor touches the plan cache: its caller (TriangleCount) builds fresh
// operands on every call, so a cached plan could never hit and would only
// pin them until evicted.
func (s *Session) EngineAuto() Engine {
	opt, cache := s.Opt, s.Cache
	return Engine{
		Name: "Auto",
		Mult: func(m *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64], complement bool) (*matrix.CSR[float64], error) {
			o := opt
			o.Complement = complement
			p := cache.Analyze(m, a.Pattern(), b.Pattern(), o)
			return planner.Execute(p, m, a, b, sr, o, nil)
		},
		PairCount: func(m, a, b *matrix.Pattern) (int64, int64, error) {
			o := opt
			o.Complement = false
			o.RowCosts = core.ComputeRowCosts(m, a, b, o.Workers())
			// cost_i = flops_i + nnz(M_i*) + 1
			flops := o.RowCosts.Total() - int64(m.NNZ()) - int64(m.NRows)
			n, err := core.MaskedPairCount(m, a, b, o)
			return n, flops, err
		},
	}
}

// EngineSSDot wraps the SS:DOT baseline. It does not support complemented
// masks (the paper excludes SS:DOT from the BC comparison).
func (s *Session) EngineSSDot() Engine {
	opt := s.Opt
	return Engine{
		Name: "SS:DOT",
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
		Name: "SS:SAXPY",
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

// EnginePlainThenMask wraps the unmasked-multiply-then-filter strawman of
// Figure 1.
func (s *Session) EnginePlainThenMask() Engine {
	opt := s.Opt
	return Engine{
		Name: "PlainThenMask",
		Mult: func(m *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64], complement bool) (*matrix.CSR[float64], error) {
			o := opt
			o.Complement = complement
			c := baseline.PlainThenMask(m, a, b, sr, o)
			if err := o.Err(); err != nil {
				return nil, err
			}
			return c, nil
		},
	}
}

// AllEngines returns the paper's 14 schemes (§8): the 12 proposed variants
// plus the two SuiteSparse-style baselines, all sharing the session's
// options and plan cache.
func (s *Session) AllEngines() []Engine {
	var out []Engine
	for _, v := range core.AllVariants() {
		out = append(out, s.EngineVariant(v))
	}
	return append(out, s.EngineSSDot(), s.EngineSSSaxpy())
}

// EngineByName resolves a scheme label: "Auto", a variant name such as
// "MSA-1P", or a baseline ("SS:DOT", "SS:SAXPY"). Repeated resolutions of
// "Auto" from one session share the session's plan cache.
func (s *Session) EngineByName(name string) (Engine, error) {
	switch name {
	case "Auto", "auto":
		return s.EngineAuto(), nil
	case "SS:DOT":
		return s.EngineSSDot(), nil
	case "SS:SAXPY":
		return s.EngineSSSaxpy(), nil
	}
	v, err := core.VariantByName(name)
	if err != nil {
		return Engine{}, err
	}
	return s.EngineVariant(v), nil
}
