package grgen

// Seed-reproducibility audit: every generator takes an explicit seed, and
// the same seed must reproduce the identical matrix bit for bit while a
// different seed must not. Benchmarks, perfbench workloads and golden tests
// all lean on this contract — a generator silently mixing in global or
// time-derived state would make every "deterministic" study unrepeatable.

import (
	"testing"

	"repro/internal/matrix"
)

func TestGeneratorsSeedReproducible(t *testing.T) {
	eq := func(x, y float64) bool { return x == y }
	gens := map[string]func(seed uint64) *matrix.CSR[float64]{
		"ErdosRenyi":     func(s uint64) *matrix.CSR[float64] { return ErdosRenyi(200, 4, s) },
		"ErdosRenyiSym":  func(s uint64) *matrix.CSR[float64] { return ErdosRenyiSym(200, 4, s) },
		"ErdosRenyiRect": func(s uint64) *matrix.CSR[float64] { return ErdosRenyiRect(150, 250, 3, s) },
		"RMAT":           func(s uint64) *matrix.CSR[float64] { return RMAT(7, 8, s) },
		"RMATDirected":   func(s uint64) *matrix.CSR[float64] { return RMATDirected(7, 8, s) },
	}
	for name, gen := range gens {
		a, b := gen(42), gen(42)
		if !matrix.Equal(a, b, eq) {
			t.Errorf("%s: same seed produced different matrices", name)
		}
		if c := gen(43); matrix.Equal(a, c, eq) {
			t.Errorf("%s: different seeds produced identical matrices", name)
		}
	}

	m1, m2 := Random01Mask(150, 250, 3, 42), Random01Mask(150, 250, 3, 42)
	if !matrix.EqualPatterns(m1, m2) {
		t.Error("Random01Mask: same seed produced different patterns")
	}
	if m3 := Random01Mask(150, 250, 3, 43); matrix.EqualPatterns(m1, m3) {
		t.Error("Random01Mask: different seeds produced identical patterns")
	}
}
