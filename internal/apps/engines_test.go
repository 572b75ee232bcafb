package apps

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Engine sets only the tests sweep: the strawman of Figure 1 and the
// paper's 14 schemes.

// EnginePlainThenMask wraps the unmasked-multiply-then-filter strawman of
// Figure 1.
func (s *Session) EnginePlainThenMask() Engine {
	opt := s.Opt
	return Engine{
		Name:    "PlainThenMask",
		workers: opt.Workers,
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
