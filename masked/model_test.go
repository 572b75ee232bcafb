package masked

// The cost model must never change answers — only which plan runs. This
// test pins that contract from the public session API: the planner's auto
// path stays bit-identical to every pinned variant under the default mask
// representation choice, and even under adversarially skewed cost models
// that flip its choices.

import (
	"context"
	"testing"

	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/planner"
)

// modelOperands builds a skewed product (R-MAT with its own pattern as
// mask — dense mask rows) plus a sparse-frontier mask, the two shapes whose
// plan choice is most sensitive to the cost coefficients.
func modelOperands() (g *Matrix, masks map[string]*Pattern) {
	g = RMAT(8, 8, 5)
	masks = map[string]*Pattern{
		"support":  g.Pattern(),
		"frontier": grgen.Random01Mask(g.NRows, g.NCols, 2, 7),
	}
	return g, masks
}

// TestSkewedModelsBitIdentical drives the auto path under adversarially
// skewed cost models — each one designed to flip the planner toward a
// different family or phase — and requires every choice to produce the
// bit-identical product. It first sweeps the auto path and all 12 pinned
// variants × the named semirings, each with the representation its path
// chooses.
func TestSkewedModelsBitIdentical(t *testing.T) {
	ctx := context.Background()
	g, masks := modelOperands()
	eq := func(a, b float64) bool { return a == b }

	semirings := map[string]Semiring{
		"arithmetic": Arithmetic(),
		"plus-pair":  PlusPair(),
		"min-plus":   MinPlus(),
	}
	for maskName, m := range masks {
		s := NewSession()
		for srName, sr := range semirings {
			want, err := s.Multiply(ctx, m, g, g, WithAccumulate(sr))
			if err != nil {
				t.Fatalf("%s/%s/auto: %v", maskName, srName, err)
			}
			for _, v := range Variants() {
				c, err := s.Multiply(ctx, m, g, g, WithAccumulate(sr), WithVariant(v))
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", maskName, srName, v.Name(), err)
				}
				if !matrix.Equal(c, want, eq) {
					t.Fatalf("%s/%s/%s: pinned variant differs from the auto path", maskName, srName, v.Name())
				}
			}
		}
	}

	def := planner.DefaultModel()
	skew := func(mut func(*planner.Model)) *planner.Model {
		m := *def
		mut(&m)
		return &m
	}
	models := map[string]*planner.Model{
		"default":      nil,
		"hash-cheap":   skew(func(m *planner.Model) { m.HashUnit = 0.01 }),
		"hash-dear":    skew(func(m *planner.Model) { m.HashUnit = 100 }),
		"heap-cheap":   skew(func(m *planner.Model) { m.HeapUnit = 0.01 }),
		"inner-cheap":  skew(func(m *planner.Model) { m.InnerUnit = 0.001; m.PullMargin = 1 }),
		"mask-dear":    skew(func(m *planner.Model) { m.MaskUnit = 50 }),
		"bitmap-cheap": skew(func(m *planner.Model) { m.BitmapProbeRatio = 0.001 }),
		"dense-dear":   skew(func(m *planner.Model) { m.DenseUnit = 100 }),
	}

	for maskName, m := range masks {
		var want *matrix.CSR[float64]
		plans := map[string]bool{}
		for modelName, mdl := range models {
			s := NewSession()
			s.cache.SetModel(mdl)
			c, err := s.Multiply(ctx, m, g, g)
			if err != nil {
				t.Fatalf("%s/%s: %v", maskName, modelName, err)
			}
			if want == nil {
				want = c
			} else if !matrix.Equal(c, want, eq) {
				t.Fatalf("%s/%s: skewed model changed the result", maskName, modelName)
			}
			plans[s.Explain(m, g, g).Explain()] = true
		}
		// The skews are only a meaningful test if at least one of them
		// actually flipped the plan.
		if len(plans) < 2 {
			t.Errorf("%s: all skewed models chose the same plan — skews too weak", maskName)
		}
	}
}
