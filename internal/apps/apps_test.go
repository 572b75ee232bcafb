package apps

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
)

// completeGraph returns K_n (no self-loops).
func completeGraph(n Index) *matrix.CSR[float64] {
	coo := &matrix.COO[float64]{NRows: n, NCols: n}
	for i := Index(0); i < n; i++ {
		for j := Index(0); j < n; j++ {
			if i != j {
				coo.Row = append(coo.Row, i)
				coo.Col = append(coo.Col, j)
				coo.Val = append(coo.Val, 1)
			}
		}
	}
	return matrix.NewCSRFromCOO(coo, nil)
}

// cycleGraph returns the n-cycle.
func cycleGraph(n Index) *matrix.CSR[float64] {
	coo := &matrix.COO[float64]{NRows: n, NCols: n}
	for i := Index(0); i < n; i++ {
		j := (i + 1) % n
		coo.Row = append(coo.Row, i, j)
		coo.Col = append(coo.Col, j, i)
		coo.Val = append(coo.Val, 1, 1)
	}
	return matrix.NewCSRFromCOO(coo, func(a, b float64) float64 { return 1 })
}

// pathGraph returns the n-vertex path.
func pathGraph(n Index) *matrix.CSR[float64] {
	coo := &matrix.COO[float64]{NRows: n, NCols: n}
	for i := Index(0); i+1 < n; i++ {
		coo.Row = append(coo.Row, i, i+1)
		coo.Col = append(coo.Col, i+1, i)
		coo.Val = append(coo.Val, 1, 1)
	}
	return matrix.NewCSRFromCOO(coo, nil)
}

// starGraph returns the star with center 0 and n-1 leaves.
func starGraph(n Index) *matrix.CSR[float64] {
	coo := &matrix.COO[float64]{NRows: n, NCols: n}
	for i := Index(1); i < n; i++ {
		coo.Row = append(coo.Row, 0, i)
		coo.Col = append(coo.Col, i, 0)
		coo.Val = append(coo.Val, 1, 1)
	}
	return matrix.NewCSRFromCOO(coo, nil)
}

func choose3(n int64) int64 { return n * (n - 1) * (n - 2) / 6 }

func TestTriangleCountKnownGraphs(t *testing.T) {
	eng := NewSession(core.Options{Threads: 2}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase})
	cases := []struct {
		name string
		g    *matrix.CSR[float64]
		want int64
	}{
		{"K4", completeGraph(4), choose3(4)},
		{"K10", completeGraph(10), choose3(10)},
		{"C5 (triangle-free)", cycleGraph(5), 0},
		{"path10", pathGraph(10), 0},
		{"star16", starGraph(16), 0},
	}
	for _, tc := range cases {
		got, err := TriangleCount(tc.g, eng)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Triangles != tc.want {
			t.Errorf("%s: triangles = %d, want %d", tc.name, got.Triangles, tc.want)
		}
		if got.Flops < 0 {
			t.Errorf("%s: negative flops", tc.name)
		}
	}
}

func TestTriangleCountAllEnginesAgree(t *testing.T) {
	g := grgen.RMAT(8, 8, 5)
	want := TriangleCountExact(g)
	for _, eng := range NewSession(core.Options{Threads: 2}).AllEngines() {
		got, err := TriangleCount(g, eng)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name, err)
		}
		if got.Triangles != want {
			t.Errorf("%s: triangles = %d, want %d", eng.Name, got.Triangles, want)
		}
	}
	// The strawman engine must agree too.
	straw := NewSession(baseline.Options{Threads: 2}).EnginePlainThenMask()
	got, err := TriangleCount(g, straw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != want {
		t.Errorf("PlainThenMask: triangles = %d, want %d", got.Triangles, want)
	}
}

func TestTriangleCountERSym(t *testing.T) {
	g := grgen.ErdosRenyiSym(200, 10, 77)
	want := TriangleCountExact(g)
	eng := NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.Hash, Phase: core.TwoPhase})
	got, err := TriangleCount(g, eng)
	if err != nil {
		t.Fatal(err)
	}
	if got.Triangles != want {
		t.Errorf("triangles = %d, want %d", got.Triangles, want)
	}
}

func TestKTrussKnownGraphs(t *testing.T) {
	eng := NewSession(core.Options{Threads: 2}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase})
	// K5 is a 5-truss: every edge supported by 3 triangles. 5-truss keeps it
	// whole; 6-truss empties it.
	k5 := completeGraph(5)
	got, res, err := KTruss(k5, 5, eng)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != k5.NNZ() {
		t.Errorf("K5 5-truss: %d edges, want %d", got.NNZ(), k5.NNZ())
	}
	if res.Iterations < 1 {
		t.Error("expected at least one iteration")
	}
	got6, _, err := KTruss(k5, 6, eng)
	if err != nil {
		t.Fatal(err)
	}
	if got6.NNZ() != 0 {
		t.Errorf("K5 6-truss: %d edges, want 0", got6.NNZ())
	}
	// A cycle has no triangles: 3-truss is empty.
	c, _, err := KTruss(cycleGraph(8), 3, eng)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 {
		t.Errorf("C8 3-truss: %d edges, want 0", c.NNZ())
	}
	if _, _, err := KTruss(k5, 2, eng); err == nil {
		t.Error("expected error for k < 3")
	}
}

func TestKTrussMatchesExact(t *testing.T) {
	g := grgen.RMAT(7, 10, 9)
	for _, k := range []int{3, 4, 5} {
		want := KTrussExact(g, k)
		for _, engName := range []string{"MSA-1P", "Hash-2P", "MCA-1P", "Inner-1P"} {
			v, err := core.VariantByName(engName)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewSession(core.Options{Threads: 2}).EngineVariant(v)
			got, _, err := KTruss(g, k, eng)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.EqualPatterns(got.Pattern(), want.Pattern()) {
				t.Errorf("k=%d %s: truss pattern differs from exact (%d vs %d edges)",
					k, engName, got.NNZ(), want.NNZ())
			}
		}
	}
}

func bcClose(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}

func TestBetweennessKnownGraphs(t *testing.T) {
	eng := NewSession(core.Options{Threads: 2}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase})
	// Path graph P5, all sources: center vertex has highest centrality.
	g := pathGraph(5)
	sources := []Index{0, 1, 2, 3, 4}
	res, err := BetweennessCentrality(g, sources, eng)
	if err != nil {
		t.Fatal(err)
	}
	want := BrandesExact(g, sources)
	if !bcClose(res.Scores, want) {
		t.Errorf("P5 scores = %v, want %v", res.Scores, want)
	}
	// Known closed form for a path: bc(v) of P5 with all sources (unnormalized,
	// directed sum) is 2*(i*(n-1-i)) for vertex i.
	for i := 0; i < 5; i++ {
		exp := 2 * float64(i*(4-i))
		if math.Abs(res.Scores[i]-exp) > 1e-9 {
			t.Errorf("P5 vertex %d: %v, want %v", i, res.Scores[i], exp)
		}
	}
	// Star graph: center lies on all leaf-to-leaf paths.
	st := starGraph(8)
	all := make([]Index, 8)
	for i := range all {
		all[i] = Index(i)
	}
	res, err = BetweennessCentrality(st, all, eng)
	if err != nil {
		t.Fatal(err)
	}
	want = BrandesExact(st, all)
	if !bcClose(res.Scores, want) {
		t.Errorf("star scores = %v, want %v", res.Scores, want)
	}
	if res.Scores[0] != float64(7*6) {
		t.Errorf("star center = %v, want 42", res.Scores[0])
	}
}

func TestBetweennessMatchesBrandesOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		g := grgen.ErdosRenyiSym(60, 4, uint64(100+trial))
		var sources []Index
		for s := 0; s < 8; s++ {
			sources = append(sources, Index(r.Intn(60)))
		}
		want := BrandesExact(g, sources)
		for _, engName := range []string{"MSA-1P", "Hash-1P", "MSA-2P", "Hash-2P", "Heap-1P"} {
			v, err := core.VariantByName(engName)
			if err != nil {
				t.Fatal(err)
			}
			res, err := BetweennessCentrality(g, sources, NewSession(core.Options{Threads: 2}).EngineVariant(v))
			if err != nil {
				t.Fatal(err)
			}
			if !bcClose(res.Scores, want) {
				t.Errorf("trial %d %s: BC scores differ from Brandes", trial, engName)
			}
		}
		// SS:SAXPY baseline supports complement; verify it too.
		res, err := BetweennessCentrality(g, sources, NewSession(baseline.Options{Threads: 2}).EngineSSSaxpy())
		if err != nil {
			t.Fatal(err)
		}
		if !bcClose(res.Scores, want) {
			t.Errorf("trial %d SS:SAXPY: BC scores differ from Brandes", trial)
		}
	}
}

// FuzzBC builds FuzzTriangleCount's small symmetric graphs (fuzzGraph)
// and takes 1 to 4 sources, one per byte of src (a source of 0 when src
// is empty; repeats allowed): the Auto engine and the pinned MSA-1P
// engine must each match BrandesExact within bcClose's tolerance.
func FuzzBC(f *testing.F) {
	f.Add(uint8(4), []byte{0}, []byte{0, 1, 1, 2, 2, 0, 2, 3})
	f.Add(uint8(1), []byte{}, []byte{0, 0})
	f.Add(uint8(12), []byte{0, 5, 9, 0}, []byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4, 5, 5, 6, 6, 4, 7, 8})
	f.Add(uint8(9), []byte{3, 8}, []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0})
	engines := []Engine{
		NewSession(core.Options{Threads: 2}).EngineAuto(),
		NewSession(core.Options{Threads: 2}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase}),
	}
	f.Fuzz(func(t *testing.T, size uint8, src, data []byte) {
		g := fuzzGraph(size, data)
		if g.NRows == 0 {
			return // no vertex to start from
		}
		sources := []Index{0}
		if len(src) > 0 {
			sources = sources[:0]
			for _, b := range src[:min(len(src), 4)] {
				sources = append(sources, Index(b)%g.NRows)
			}
		}
		want := BrandesExact(g, sources)
		for _, eng := range engines {
			res, err := BetweennessCentrality(g, sources, eng)
			if err != nil {
				t.Fatal(err)
			}
			if !bcClose(res.Scores, want) {
				t.Fatalf("%s, sources %v: scores %v, Brandes %v", eng.Name, sources, res.Scores, want)
			}
		}
	})
}

func TestBetweennessRejectsComplementIncapable(t *testing.T) {
	g := pathGraph(4)
	if _, err := BetweennessCentrality(g, []Index{0}, NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.MCA, Phase: core.OnePhase})); err == nil {
		t.Error("expected MCA to be rejected for BC")
	}
	if _, err := BetweennessCentrality(g, []Index{0}, NewSession(baseline.Options{}).EngineSSDot()); err == nil {
		t.Error("expected SS:DOT to be rejected for BC")
	}
}

func TestBetweennessEdgeCases(t *testing.T) {
	eng := NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase})
	g := pathGraph(4)
	// No sources.
	res, err := BetweennessCentrality(g, nil, eng)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Scores {
		if v != 0 {
			t.Error("empty batch must give zero scores")
		}
	}
	// Out-of-range source.
	if _, err := BetweennessCentrality(g, []Index{99}, eng); err == nil {
		t.Error("expected error for out-of-range source")
	}
	// Disconnected graph: BFS from an isolated vertex terminates immediately.
	iso := matrix.NewEmptyCSR[float64](5, 5)
	res, err = BetweennessCentrality(iso, []Index{2}, eng)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Scores {
		if v != 0 {
			t.Error("isolated graph must give zero scores")
		}
	}
	// Duplicate sources are processed independently (contributions double).
	dup, err := BetweennessCentrality(g, []Index{1, 1}, eng)
	if err != nil {
		t.Fatal(err)
	}
	single := BrandesExact(g, []Index{1})
	for i := range single {
		single[i] *= 2
	}
	if !bcClose(dup.Scores, single) {
		t.Errorf("duplicate sources: %v, want %v", dup.Scores, single)
	}
}

func TestTCMetrics(t *testing.T) {
	r := TCResult{Flops: 1e9, MaskedTime: 1e9} // 1 second
	if g := r.GFLOPS(); math.Abs(g-2.0) > 1e-12 {
		t.Errorf("GFLOPS = %v, want 2", g)
	}
	if (TCResult{}).GFLOPS() != 0 {
		t.Error("zero-time GFLOPS must be 0")
	}
	k := KTrussResult{Flops: 5e8, MaskedTime: 1e9}
	if g := k.GFLOPS(); math.Abs(g-1.0) > 1e-12 {
		t.Errorf("ktruss GFLOPS = %v, want 1", g)
	}
	b := BCResult{BatchSize: 10, Edges: 1e6, TotalTime: 1e9}
	if m := b.MTEPS(); math.Abs(m-10.0) > 1e-12 {
		t.Errorf("MTEPS = %v, want 10", m)
	}
}
