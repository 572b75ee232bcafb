// Cross-module integration tests: end-to-end pipelines that exercise the
// generators, Matrix Market I/O, both API levels (internal kernels and
// the public facade) and the applications against each other.
package repro_test

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/mmio"
	"repro/internal/semiring"
	"repro/masked"
)

// TestPipelineGenerateWriteReadCount: generate a graph, round-trip it
// through Matrix Market, and verify that triangle counting agrees across
// two kernel families of the facade and the exact counter.
func TestPipelineGenerateWriteReadCount(t *testing.T) {
	g := grgen.RMAT(8, 8, 77)
	path := filepath.Join(t.TempDir(), "g.mtx")
	if err := mmio.WriteFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := mmio.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(g, back, func(a, b float64) bool { return a == b }) {
		t.Fatal("matrix market round trip changed the graph")
	}
	exact := apps.TriangleCountExact(back)
	// Facade (session API).
	v, _ := masked.VariantByName("Hash-1P")
	s := masked.NewSession()
	fres, err := s.TriangleCount(context.Background(), back, masked.WithVariant(v))
	if err != nil {
		t.Fatal(err)
	}
	if fres.Triangles != exact {
		t.Fatalf("facade: %d triangles, want %d", fres.Triangles, exact)
	}
	// A second kernel family (dense-array accumulator) on the same input.
	v, _ = masked.VariantByName("MCA-1P")
	mres, err := s.TriangleCount(context.Background(), back, masked.WithVariant(v))
	if err != nil {
		t.Fatal(err)
	}
	if mres.Triangles != exact {
		t.Fatalf("facade MCA-1P: %d triangles, want %d", mres.Triangles, exact)
	}
}

// TestPipelineBFSAcrossAPIs: the facade BFS agrees with the queue
// reference on every model.
func TestPipelineBFSAcrossAPIs(t *testing.T) {
	graphs := []*matrix.CSR[float64]{
		grgen.WattsStrogatz(300, 4, 0.2, 9),
		grgen.Grid2D(15, 20),
		grgen.BarabasiAlbert(300, 2, 4),
	}
	ctx := context.Background()
	s := masked.NewSession()
	for gi, g := range graphs {
		want := apps.BFSExact(g, 0)
		fres, err := s.BFS(ctx, g, 0)
		if err != nil {
			t.Fatal(err)
		}
		for vtx := range want {
			if fres.Level[vtx] != want[vtx] {
				t.Fatalf("graph %d facade BFS: vertex %d", gi, vtx)
			}
		}
	}
}

// TestPipelineKTrussConsistency: the session's k-truss and the exact
// reference agree on the mesh (which is triangle-free
// → empty 3-truss) and on a clique-rich small world graph.
func TestPipelineKTrussConsistency(t *testing.T) {
	mesh := grgen.Grid2D(12, 12)
	v, _ := masked.VariantByName("MCA-1P")
	ctx := context.Background()
	s := masked.NewSession()
	truss, _, err := s.KTruss(ctx, mesh, 3, masked.WithVariant(v))
	if err != nil {
		t.Fatal(err)
	}
	if truss.NNZ() != 0 {
		t.Fatal("mesh 3-truss must be empty (triangle-free)")
	}
	ws := grgen.WattsStrogatz(200, 8, 0.05, 6)
	want := apps.KTrussExact(ws, 4)
	got, _, err := s.KTruss(ctx, ws, 4, masked.WithVariant(v))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.EqualPatterns(got.Pattern(), want.Pattern()) {
		t.Fatalf("ws 4-truss: %d edges vs exact %d", got.NNZ(), want.NNZ())
	}
}

// TestPipelineBCDeterminism: BC scores are independent of the engine,
// thread count and phase (floating-point order is fixed per row by the
// sorted gather).
func TestPipelineBCDeterminism(t *testing.T) {
	g := grgen.WattsStrogatz(150, 4, 0.3, 8)
	sources := []matrix.Index{0, 10, 20, 30}
	want := apps.BrandesExact(g, sources)
	ctx := context.Background()
	s := masked.NewSession()
	for _, name := range []string{"MSA-1P", "Hash-2P", "HeapDot-1P"} {
		v, _ := masked.VariantByName(name)
		for _, threads := range []int{1, 4} {
			res, err := s.BC(ctx, g, sources, masked.WithVariant(v), masked.WithThreads(threads))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				diff := res.Scores[i] - want[i]
				if diff < -1e-9 || diff > 1e-9 {
					t.Fatalf("%s threads=%d: vertex %d: %v vs %v", name, threads, i, res.Scores[i], want[i])
				}
			}
		}
	}
}

// TestPipelineAutoMatchesEveryVariant: the adaptive planner's product is
// bit-identical to every fixed variant on the integration graph corpus, in
// both mask modes, and the Auto engine completes every application.
func TestPipelineAutoMatchesEveryVariant(t *testing.T) {
	graphs := []*matrix.CSR[float64]{
		grgen.WattsStrogatz(400, 6, 0.1, 1),
		grgen.BarabasiAlbert(400, 3, 2),
		grgen.Grid2D(20, 20),
		grgen.RMAT(9, 8, 3),
	}
	sr := semiring.PlusPairF()
	eq := func(a, b float64) bool { return a == b }
	ctx := context.Background()
	s := masked.NewSession()
	for gi, g := range graphs {
		l := matrix.Tril(g)
		for _, complement := range []bool{false, true} {
			opts := []masked.Op{masked.WithAccumulate(sr)}
			if complement {
				opts = append(opts, masked.WithComplement())
			}
			got, plan, err := s.MultiplyAuto(ctx, l.Pattern(), l, l, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range masked.Variants() {
				if complement && !v.SupportsComplement() {
					continue
				}
				want, err := s.Multiply(ctx, l.Pattern(), l, l, append(opts, masked.WithVariant(v))...)
				if err != nil {
					t.Fatal(err)
				}
				if !matrix.Equal(got, want, eq) {
					t.Fatalf("graph %d complement=%v: auto disagrees with %s\n%s",
						gi, complement, v.Name(), plan.Explain())
				}
			}
		}
	}
	// Auto engine drives the applications end-to-end.
	eng := apps.NewSession(core.Options{}).EngineAuto()
	g := graphs[3]
	tc, err := apps.TriangleCount(g, eng)
	if err != nil {
		t.Fatal(err)
	}
	if exact := apps.TriangleCountExact(g); tc.Triangles != exact {
		t.Fatalf("auto TC %d, want %d", tc.Triangles, exact)
	}
	if _, _, err := apps.KTruss(g, 4, eng); err != nil {
		t.Fatal(err)
	}
	if _, err := apps.BetweennessCentrality(g, []matrix.Index{0, 5, 9}, eng); err != nil {
		t.Fatal(err)
	}
}
