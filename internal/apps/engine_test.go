package apps

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// TestSessionEnginesSharePlanCache: every Auto engine resolved from one
// session consults the same plan cache, so an engine sweep analyzes each
// product once — not once per engine (the pre-session regression).
func TestSessionEnginesSharePlanCache(t *testing.T) {
	g := grgen.RMAT(8, 8, 5)
	l := matrix.Tril(g)
	s := NewSession(core.Options{Threads: 1})
	e1, e2 := s.EngineAuto(), s.EngineAuto()
	want, err := e1.Mult(l.Pattern(), l, l, semiring.PlusPairF(), false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.Mult(l.Pattern(), l, l, semiring.PlusPairF(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, want, func(a, b float64) bool { return a == b }) {
		t.Fatal("engines from one session disagree")
	}
	if st := s.Cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("plan cache: got %d hits / %d misses, want 1/1 (shared cache)", st.Hits, st.Misses)
	}
}

// TestSessionEngineContext: a session constructed with a cancelled context
// refuses work with context.Canceled, for variants and baselines alike.
func TestSessionEngineContext(t *testing.T) {
	g := grgen.RMAT(8, 8, 5)
	l := matrix.Tril(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession(core.Options{Threads: 1, Ctx: ctx})
	for _, eng := range []Engine{
		s.EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase}),
		s.EngineAuto(),
		s.EngineSSSaxpy(),
	} {
		if _, err := eng.Mult(l.Pattern(), l, l, semiring.PlusPairF(), false); !errors.Is(err, context.Canceled) {
			t.Errorf("%s with cancelled session context: got %v, want context.Canceled", eng.Name, err)
		}
	}
}
