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
// The complement arm covers the MSA's insertion log and the two-level
// bitmap that orders it, both of which ride the pooled accumulator.
func TestSpecializedKernelsZeroAllocsPerRow(t *testing.T) {
	ctx := context.Background()
	msa := Variant{Alg: MSA, Phase: OnePhase}
	for _, c := range []struct {
		name string
		v    Variant
		ops  []Op
	}{
		{"MSA-1P", msa, nil},
		{"Hash-1P", Variant{Alg: Hash, Phase: OnePhase}, nil},
		{"MCA-1P", Variant{Alg: MCA, Phase: OnePhase}, nil},
		{"MSA-1P/complement", msa, []Op{WithComplement()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			perRun := func(scale int) float64 {
				lp, l := tcOperands(scale, 8, 9)
				s := NewSession(append([]Op{WithThreads(1), WithVariant(c.v), WithAccumulate(PlusPair())}, c.ops...)...)
				if p := s.Explain(lp, l, l); p == nil || p.Ops != core.OpsInlined {
					t.Fatalf("expected the specialized (ops=inlined) path for %s + plus-pair", c.name)
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
				t.Errorf("%s: warmed allocs/op grew with rows: %.0f at 512 rows, %.0f at 2048 rows; specialized kernels must allocate zero per row", c.name, small, big)
			}
		})
	}
}

// TestStreamingLoopDriverPoolWarm guards the streaming path's share of the
// steady-state allocation contract. On a semiring other than plus-pair the
// frontier rows are recomputed by kernels: once a delta product has seen
// one full insert/delete cycle of a fixed edge set (warming every driver
// buffer size class the frontier sub-products use), further cycles must
// take zero driver pool misses — the frontier extraction and splice
// allocate their own small arrays, but the kernels' accumulator and output
// buffers all come from the warmed pools. A plus-pair product patches its
// frontier rows by count changes after its first product, so its updates
// must take no driver pool buffer at all.
func TestStreamingLoopDriverPoolWarm(t *testing.T) {
	t.Run("Arithmetic", func(t *testing.T) {
		s, cycle := streamingLoop(t, Arithmetic())
		cycle() // warm the frontier-shaped pools
		before := s.Stats().DriverPool
		for i := 0; i < 8; i++ {
			cycle()
		}
		after := s.Stats().DriverPool
		if after.Gets == before.Gets {
			t.Fatal("test premise broken: the arithmetic updates took no driver pool buffer")
		}
		if after.Misses != before.Misses {
			t.Fatalf("warmed streaming loop performed %d driver pool misses over 16 updates (gets %d); want 0",
				after.Misses-before.Misses, after.Gets-before.Gets)
		}
	})
	t.Run("PlusPair", func(t *testing.T) {
		s, cycle := streamingLoop(t, PlusPair())
		before := s.Stats().DriverPool
		for i := 0; i < 8; i++ {
			cycle()
		}
		if after := s.Stats().DriverPool; after.Gets != before.Gets {
			t.Fatalf("plus-pair streaming loop took %d driver pool buffers over 16 updates; want 0 (its refreshes patch counts)",
				after.Gets-before.Gets)
		}
	})
}

// streamingLoop builds a session and a delta product on a small triangle
// graph under sr, computes its first product, and returns the session and
// a cycle that inserts a fixed edge set and deletes it again. Each cycle
// returns the graph to its base content, so every iteration's frontier —
// and therefore the driver buffer size classes — repeats exactly.
func streamingLoop(t *testing.T, sr Semiring) (*Session, func()) {
	t.Helper()
	ctx := context.Background()
	_, l := tcOperands(9, 8, 23)
	s := NewSession(WithThreads(2), WithAccumulate(sr))
	g, err := NewDeltaMatrix(l)
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewDeltaProduct(g, g, g)
	if _, err := s.MultiplyDelta(ctx, p); err != nil {
		t.Fatal(err)
	}
	edges := []Update{
		{Row: 40, Col: 3, Val: 1}, {Row: 41, Col: 7, Val: 1}, {Row: 42, Col: 11, Val: 1},
	}
	dels := make([]Update, len(edges))
	for i, e := range edges {
		dels[i] = Update{Row: e.Row, Col: e.Col, Delete: true}
	}
	return s, func() {
		t.Helper()
		for _, b := range [][]Update{edges, dels} {
			if _, err := s.Update(ctx, p, b); err != nil {
				t.Fatal(err)
			}
		}
	}
}
