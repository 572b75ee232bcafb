package masked

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestSpecializedKernelsZeroAllocsPerRow guards the steady-state allocation
// contract of the monomorphized operator loops: on a warmed session the
// specialized kernels must allocate nothing per row. The loops write into
// pooled accumulators and pooled output buffers, so a warmed multiply's
// allocation count is a small constant (session bookkeeping + result
// headers) — it must not grow when the input gets 4x more rows. A per-row
// allocation of even one object would show up as a ~1500-alloc delta here.
func TestSpecializedKernelsZeroAllocsPerRow(t *testing.T) {
	ctx := context.Background()
	for _, v := range []Variant{
		{Alg: MSA, Phase: OnePhase},
		{Alg: Hash, Phase: OnePhase},
		{Alg: MCA, Phase: OnePhase},
	} {
		t.Run(v.Name(), func(t *testing.T) {
			perRun := func(scale int) float64 {
				lp, l := tcOperands(scale, 8, 9)
				s := NewSession(WithThreads(1), WithVariant(v), WithAccumulate(PlusPair()))
				if p := s.Explain(lp, l, l); p == nil || p.Ops != core.OpsInlined {
					t.Fatalf("expected the specialized (ops=inlined) path for %s + plus-pair", v.Name())
				}
				if _, err := s.Multiply(ctx, lp, l, l); err != nil { // warm pools + plan cache
					t.Fatal(err)
				}
				return testing.AllocsPerRun(10, func() {
					if _, err := s.Multiply(ctx, lp, l, l); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, big := perRun(9), perRun(11)
			// Slack for runtime internals: map growth and, under -race, the
			// race runtime's own size-dependent bookkeeping add a handful of
			// allocations. A single per-row allocation would add ~1536 here
			// (the row delta), three orders of magnitude above the slack.
			if big > small+8 {
				t.Errorf("%s: warmed allocs/op grew with rows: %.0f at 512 rows, %.0f at 2048 rows; specialized kernels must allocate zero per row", v.Name(), small, big)
			}
		})
	}
}

// TestStreamingLoopDriverPoolWarm guards the streaming path's share of the
// steady-state allocation contract: once a delta product has seen one full
// insert/delete cycle of a fixed edge set (warming every driver buffer
// size class the frontier sub-products use), further cycles must take zero
// driver pool misses — the frontier extraction and splice allocate their
// own small arrays, but the kernels' accumulator and output buffers all
// come from the warmed pools.
func TestStreamingLoopDriverPoolWarm(t *testing.T) {
	ctx := context.Background()
	_, l := tcOperands(9, 8, 23)
	s := NewSession(WithThreads(2), WithAccumulate(PlusPair()))
	g, err := NewDeltaMatrix(l)
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewDeltaProduct(g, g, g)
	if _, err := s.MultiplyDelta(ctx, p); err != nil {
		t.Fatal(err)
	}
	// A fixed edge set toggled on and off: each cycle returns the graph to
	// its base content, so every iteration's frontier — and therefore the
	// driver buffer size classes — repeats exactly.
	edges := []Update{
		{Row: 40, Col: 3, Val: 1}, {Row: 41, Col: 7, Val: 1}, {Row: 42, Col: 11, Val: 1},
	}
	cycle := func() {
		t.Helper()
		if _, err := s.Update(ctx, p, edges); err != nil {
			t.Fatal(err)
		}
		dels := make([]Update, len(edges))
		for i, e := range edges {
			dels[i] = Update{Row: e.Row, Col: e.Col, Delete: true}
		}
		if _, err := s.Update(ctx, p, dels); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the frontier-shaped pools
	missBefore := s.Stats().DriverPool.Misses
	for i := 0; i < 8; i++ {
		cycle()
	}
	after := s.Stats().DriverPool
	if after.Misses != missBefore {
		t.Fatalf("warmed streaming loop performed %d driver pool misses over 16 updates (gets %d); want 0",
			after.Misses-missBefore, after.Gets)
	}
}
