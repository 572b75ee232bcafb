// Root benchmark suite: one testing.B benchmark per table/figure of the
// paper's evaluation (§8), plus ablation benches for the design choices
// ARCHITECTURE.md calls out. These benches give per-kernel steady-state
// numbers with -benchmem allocation tracking; perfbench/ is the end-to-end
// suite with per-layer metrics.
//
// Run: go test -bench=. -benchmem
package repro_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/masked"
)

// Shared inputs, generated once. Sizes chosen so a full -bench=. run
// finishes in minutes on a laptop.
var (
	onceInputs sync.Once
	rmatG      *matrix.CSR[float64] // R-MAT scale 11, ef 16: the TC/k-truss graph
	rmatL      *matrix.CSR[float64] // lower triangle after degree relabel
	erA, erB   *matrix.CSR[float64] // ER inputs for the Fig. 7 density points
	erAsp      *matrix.CSR[float64] // very sparse ER inputs (Heap's corner)
	erBsp      *matrix.CSR[float64]
	erMaskEq   *matrix.Pattern      // mask with density comparable to inputs
	erMaskSp   *matrix.Pattern      // mask much sparser than inputs
	erMaskDn   *matrix.Pattern      // mask much denser than inputs
	bcG        *matrix.CSR[float64] // BC graph
	bcSrcs     []matrix.Index
)

func loadInputs() {
	onceInputs.Do(func() {
		rmatG = grgen.RMAT(11, 16, 1)
		rmatL = matrix.RelabelTril(rmatG, 0)
		const n = 1 << 12
		erA = grgen.ErdosRenyi(n, 16, 11)
		erB = grgen.ErdosRenyi(n, 16, 12)
		erAsp = grgen.ErdosRenyi(n, 1, 16)
		erBsp = grgen.ErdosRenyi(n, 1, 17)
		erMaskEq = grgen.ErdosRenyi(n, 16, 13).Pattern()
		erMaskSp = grgen.ErdosRenyi(n, 1, 14).Pattern()
		erMaskDn = grgen.ErdosRenyi(n, 256, 15).Pattern()
		bcG = grgen.RMAT(10, 16, 2)
		bcSrcs = make([]matrix.Index, 32)
		for i := range bcSrcs {
			bcSrcs[i] = matrix.Index(i * 17 % int(bcG.NRows))
		}
	})
}

func benchVariant(b *testing.B, v core.Variant, m *matrix.Pattern, a, bb *matrix.CSR[float64]) {
	b.Helper()
	sr := semiring.Arithmetic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MaskedSpGEMM(v, m, a, bb, sr, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig07 times every 1P algorithm at the three regimes of the
// Fig. 7 grid: mask ≪ inputs (Inner's corner), mask ≈ inputs (MSA/Hash's
// region), mask ≫ inputs (Heap's corner).
func BenchmarkFig07(b *testing.B) {
	loadInputs()
	regimes := []struct {
		name string
		mask *matrix.Pattern
	}{
		{"maskSparse_d1", erMaskSp},
		{"maskEqual_d16", erMaskEq},
		{"maskDense_d256", erMaskDn},
	}
	for _, reg := range regimes {
		for _, alg := range []core.Algorithm{core.MSA, core.Hash, core.MCA, core.Heap, core.HeapDot, core.Inner} {
			b.Run(reg.name+"/"+alg.String(), func(b *testing.B) {
				benchVariant(b, core.Variant{Alg: alg, Phase: core.OnePhase}, reg.mask, erA, erB)
			})
		}
	}
}

// BenchmarkFig08TriangleCount times the masked product of triangle
// counting (C = L .* L·L) for all 12 variants (the Fig. 8 profile's data).
func BenchmarkFig08TriangleCount(b *testing.B) {
	loadInputs()
	sr := semiring.PlusPairF()
	for _, v := range core.AllVariants() {
		b.Run(v.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MaskedSpGEMM(v, rmatL.Pattern(), rmatL, rmatL, sr, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRelabel times building triangle counting's operand from the
// graph: the three-step chain (degree permutation, permuted copy, lower
// triangle) against the fused RelabelTril, which yields the same L, and
// DegreeTril, which yields L's pattern in the graph's own labels, the
// operand the Auto engine's triangle count runs on. The fused forms run at
// 1 and 2 workers; their output is the same at both.
func BenchmarkRelabel(b *testing.B) {
	loadInputs()
	b.Run("chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matrix.Tril(matrix.Permute(rmatG, matrix.DegreeDescPerm(rmatG)))
		}
	})
	for _, w := range []int{1, 2} {
		b.Run("fused/workers"+itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matrix.RelabelTril(rmatG, w)
			}
		})
		b.Run("oriented/workers"+itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matrix.DegreeTril(rmatG, w)
			}
		})
	}
}

// BenchmarkFig09Baselines times the SS:GB-style baselines on the same
// triangle-counting product (Fig. 9's comparison).
func BenchmarkFig09Baselines(b *testing.B) {
	loadInputs()
	sr := semiring.PlusPairF()
	b.Run("SS:SAXPY", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.SSSaxpy(rmatL.Pattern(), rmatL, rmatL, sr, baseline.Options{})
		}
	})
	b.Run("SS:DOT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.SSDot(rmatL.Pattern(), rmatL, rmatL, sr, baseline.Options{})
		}
	})
	b.Run("PlainThenMask", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.PlainThenMask(rmatL.Pattern(), rmatL, rmatL, sr, baseline.Options{})
		}
	})
}

// BenchmarkFig10Scaling times full triangle counting across R-MAT scales
// (Fig. 10's x-axis) with the overall winner MSA-1P.
func BenchmarkFig10Scaling(b *testing.B) {
	for _, scale := range []int{8, 10, 12} {
		g := grgen.RMAT(scale, 16, 1)
		eng := apps.NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase})
		b.Run("scale"+itoa(scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := apps.TriangleCount(g, eng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTriangleCountAuto times the Auto engine's triangle count on
// tc-rmat's graph shape (R-MAT scale 13, edge factor 16) at two workers.
// cold counts a fresh Clone each iteration, so the count operand is built
// every time and never kept; warm counts one graph, whose operand the
// session's plan cache keeps from the second count on. The Clone is not
// timed.
func BenchmarkTriangleCountAuto(b *testing.B) {
	g := grgen.RMAT(13, 16, 1)
	b.Run("cold", func(b *testing.B) {
		eng := apps.NewSession(core.Options{Threads: 2}).EngineAuto()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h := g.Clone()
			b.StartTimer()
			if _, err := apps.TriangleCount(h, eng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := apps.NewSession(core.Options{Threads: 2}).EngineAuto()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := apps.TriangleCount(g, eng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig11Threads times triangle counting across worker counts
// (Fig. 11's strong scaling; on a single-core host columns coincide).
func BenchmarkFig11Threads(b *testing.B) {
	loadInputs()
	for _, threads := range []int{1, 2, 4} {
		eng := apps.NewSession(core.Options{Threads: threads}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase})
		b.Run("threads"+itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := apps.TriangleCount(rmatG, eng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12KTruss times the full k-truss loop per scheme (Figs. 12-13).
func BenchmarkFig12KTruss(b *testing.B) {
	loadInputs()
	engines := []apps.Engine{
		apps.NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase}),
		apps.NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.Hash, Phase: core.OnePhase}),
		apps.NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.MCA, Phase: core.OnePhase}),
		apps.NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.Inner, Phase: core.OnePhase}),
		apps.NewSession(core.Options{}).EngineAuto(),
		apps.NewSession(baseline.Options{}).EngineSSSaxpy(),
		apps.NewSession(baseline.Options{}).EngineSSDot(),
	}
	for _, eng := range engines {
		b.Run(eng.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := apps.KTruss(rmatG, 5, eng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14KTrussScaling sweeps k-truss across R-MAT scales with the
// two families Fig. 14 contrasts (push MSA vs pull Inner).
func BenchmarkFig14KTrussScaling(b *testing.B) {
	for _, scale := range []int{8, 10} {
		g := grgen.RMAT(scale, 16, 1)
		for _, name := range []string{"MSA-1P", "Inner-1P"} {
			v, _ := core.VariantByName(name)
			eng := apps.NewSession(core.Options{}).EngineVariant(v)
			b.Run("scale"+itoa(scale)+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := apps.KTruss(g, 5, eng); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig15BC times batched betweenness centrality per scheme
// (Figs. 15-16's data).
func BenchmarkFig15BC(b *testing.B) {
	loadInputs()
	engines := []apps.Engine{
		apps.NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.OnePhase}),
		apps.NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.Hash, Phase: core.OnePhase}),
		apps.NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.MSA, Phase: core.TwoPhase}),
		apps.NewSession(core.Options{}).EngineVariant(core.Variant{Alg: core.Hash, Phase: core.TwoPhase}),
		apps.NewSession(core.Options{}).EngineAuto(),
		apps.NewSession(baseline.Options{}).EngineSSSaxpy(),
	}
	for _, eng := range engines {
		b.Run(eng.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := apps.BetweennessCentrality(bcG, bcSrcs, eng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (design choices DESIGN.md calls out) ---

// BenchmarkAblationPhases isolates the §6 one-vs-two-phase question on the
// triangle-count product.
func BenchmarkAblationPhases(b *testing.B) {
	loadInputs()
	sr := semiring.PlusPairF()
	for _, alg := range []core.Algorithm{core.MSA, core.Hash, core.MCA} {
		for _, ph := range []core.Phase{core.OnePhase, core.TwoPhase} {
			v := core.Variant{Alg: alg, Phase: ph}
			b.Run(v.Name(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.MaskedSpGEMM(v, rmatL.Pattern(), rmatL, rmatL, sr, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationNInspect sweeps the Heap algorithm's §5.5 mask
// inspection depth (0 = blind push, 1 = Heap, big = HeapDot).
func BenchmarkAblationNInspect(b *testing.B) {
	loadInputs()
	sr := semiring.Arithmetic()
	for _, ni := range []int32{0, 1, 2, 8, 1 << 30} {
		b.Run("NInspect"+itoa(int(ni)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MaskedSpGEMMHeapNInspect(core.OnePhase, erMaskEq, erA, erB, sr, ni, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGrain sweeps the dynamic scheduler's chunk size.
func BenchmarkAblationGrain(b *testing.B) {
	loadInputs()
	sr := semiring.PlusPairF()
	for _, grain := range []int{1, 16, 64, 256, 1024} {
		b.Run("grain"+itoa(grain), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := core.Variant{Alg: core.MSA, Phase: core.OnePhase}
				if _, err := core.MaskedSpGEMM(v, rmatL.Pattern(), rmatL, rmatL, sr, core.Options{Grain: grain}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdaptivePlanner races the planner's Auto path against every 1P
// algorithm (and the old hardcoded MSA-1P default) at the three Fig. 7
// regimes plus the triangle-counting product. The acceptance bar: Auto
// within ~10% of the regime's best fixed variant and ahead of MSA-1P
// wherever MSA-1P is not the winner. Plan analysis (cache-cold every
// iteration here, since the shared cache keys on operand identity and the
// operands are fixed — so iterations after the first are cache-warm) is
// included in Auto's time.
func BenchmarkAdaptivePlanner(b *testing.B) {
	loadInputs()
	sr := semiring.Arithmetic()
	workloads := []struct {
		name  string
		mask  *matrix.Pattern
		a, bb *matrix.CSR[float64]
	}{
		{"sparseMask_d1", erMaskSp, erA, erB},
		{"sparseInputs_d1", erMaskDn, erAsp, erBsp},
		{"comparable_d16", erMaskEq, erA, erB},
		{"rmatTC", rmatL.Pattern(), rmatL, rmatL},
	}
	for _, w := range workloads {
		cache := planner.NewCache()
		b.Run(w.name+"/Auto", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := cache.Analyze(w.mask, w.a.Pattern(), w.bb.Pattern(), core.Options{})
				if _, err := planner.Execute(p, w.mask, w.a, w.bb, sr, core.Options{}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, alg := range []core.Algorithm{core.MSA, core.Hash, core.Heap, core.HeapDot, core.Inner} {
			b.Run(w.name+"/"+alg.String(), func(b *testing.B) {
				benchVariant(b, core.Variant{Alg: alg, Phase: core.OnePhase}, w.mask, w.a, w.bb)
			})
		}
	}
}

// BenchmarkAdaptivePlannerAnalysis isolates the planner's analysis cost
// (cold and cached) from execution.
func BenchmarkAdaptivePlannerAnalysis(b *testing.B) {
	loadInputs()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			planner.Analyze(rmatL.Pattern(), rmatL.Pattern(), rmatL.Pattern(), core.Options{})
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache := planner.NewCache()
		for i := 0; i < b.N; i++ {
			cache.Analyze(rmatL.Pattern(), rmatL.Pattern(), rmatL.Pattern(), core.Options{})
		}
	})
}

// BenchmarkSpGEVM times the vector primitive (one masked row product) for
// the push and pull kernels plus the direction-optimized auto dispatch.
func BenchmarkSpGEVM(b *testing.B) {
	loadInputs()
	sr := semiring.Arithmetic()
	u := matrix.RowToVec(erA, 7)
	m := matrix.RowToVec(matrix.FromPattern(erMaskEq, 1.0), 7)
	mp, ur := m.VecPattern(), u.AsRowMatrix()
	bcsc := matrix.ToCSC(erB)
	b.Run("MSA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MaskedSpGEMM(core.Variant{Alg: core.MSA, Phase: core.OnePhase}, mp, ur, erB, sr, core.Options{Threads: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Inner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MaskedSpGEMM(core.Variant{Alg: core.Inner, Phase: core.OnePhase}, mp, ur, erB, sr, core.Options{Threads: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Auto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.MaskedSpGEVMAuto(m, u, erB, bcsc, sr, core.Options{Threads: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBFSDirectionOptimized times the full direction-optimized BFS.
func BenchmarkBFSDirectionOptimized(b *testing.B) {
	loadInputs()
	for i := 0; i < b.N; i++ {
		if _, err := apps.BFS(bcG, 0, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTransposeCost contrasts Inner with B transposed per
// call (what SS:DOT does, §8.4) against a pre-transposed B.
func BenchmarkAblationTransposeCost(b *testing.B) {
	loadInputs()
	sr := semiring.Arithmetic()
	b.Run("transposePerCall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v := core.Variant{Alg: core.Inner, Phase: core.OnePhase}
			if _, err := core.MaskedSpGEMM(v, erMaskEq, erA, erB, sr, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	bcsc := matrix.ToCSC(erB)
	b.Run("preTransposed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MaskedDotCSC(core.OnePhase, erMaskEq, erA, bcsc, sr, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func itoa(n int) string {
	if n == 1<<30 {
		return "inf"
	}
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// BenchmarkSchedule contrasts equal-row chunking (no cost profile) against
// cost-balanced equal-flops spans (the profile, marked skewed) on the
// skewed triangle-counting product, at ≥4 workers on a warmed workspace
// arena. On multi-core hosts
// the cost schedule wins wall-clock on the R-MAT input by shaving the
// straggler tail (BENCH_PR4.json records the study's load-imbalance model).
// -benchmem allocation counts are flat in the input size: the drivers take
// all scratch from the pooled arena.
func BenchmarkSchedule(b *testing.B) {
	loadInputs()
	lp := rmatL.Pattern()
	skewed := core.ComputeRowCosts(lp, lp, lp, 0)
	skewed.Skewed = true
	sr := semiring.PlusPairF()
	v := core.Variant{Alg: core.MSA, Phase: core.OnePhase}
	for _, threads := range []int{4, 8} {
		for _, profile := range []struct {
			name string
			rc   *core.RowCosts
		}{{"nil", nil}, {"skewed", skewed}} {
			b.Run("threads"+itoa(threads)+"/profile-"+profile.name, func(b *testing.B) {
				ws := core.NewWorkspaces()
				opt := core.Options{Threads: threads, RowCosts: profile.rc, Workspaces: ws}
				if _, err := core.MaskedSpGEMM(v, lp, rmatL, rmatL, sr, opt); err != nil { // warm the pools
					b.Fatal(err)
				}
				missBefore := ws.PoolStatsSnapshot().Misses
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.MaskedSpGEMM(v, lp, rmatL, rmatL, sr, opt); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if missAfter := ws.PoolStatsSnapshot().Misses; missAfter != missBefore {
					b.Fatalf("warmed drivers performed %d pool-missing allocations over %d ops; want 0",
						missAfter-missBefore, b.N)
				}
			})
		}
	}
}

// BenchmarkMaskRep compares the CSR probe against the bitmap mask
// representation on the dense-mask shapes the representation subsystem
// targets: the k-truss support product (mask = the graph itself, flat ER
// degrees — MCA's per-A-entry merge regime) and the Hash kernel under a
// dense mask. Each representation runs as a one-block plan. The planner's
// auto thresholds were chosen from this data.
func BenchmarkMaskRep(b *testing.B) {
	loadInputs()
	erK := grgen.ErdosRenyiSym(1<<11, 32, 21)
	cases := []struct {
		name string
		alg  core.Algorithm
		m    *matrix.Pattern
		a, c *matrix.CSR[float64]
	}{
		{"ktrussMCA", core.MCA, erK.Pattern(), erK, erK},
		{"ktrussHash", core.Hash, erK.Pattern(), erK, erK},
		{"denseMaskHash", core.Hash, erMaskDn, erA, erB},
	}
	for _, tc := range cases {
		for _, rep := range []core.MaskRep{core.RepCSR, core.RepBitmap} {
			b.Run(tc.name+"/"+rep.String(), func(b *testing.B) {
				sr := semiring.PlusPairF()
				blocks := []core.ExecBlock{{Lo: 0, Hi: tc.m.NRows, Alg: tc.alg, Rep: rep}}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.MaskedSpGEMMBlocked(core.OnePhase, blocks, tc.m, tc.a, tc.c, nil, sr, core.Options{}, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkServing contrasts serialized one-at-a-time multiplies against
// the batched serving path on a zipf-shaped query mix (hot requests
// repeated, cold singletons). The serving win comes from coalescing the
// hot duplicates plus arbitrated worker shares (BENCH_PR5.json records the
// full study).
func BenchmarkServing(b *testing.B) {
	ctx := context.Background()
	hotL := matrix.Tril(grgen.RMAT(8, 8, 51))
	hotG := grgen.ErdosRenyi(1<<8, 8, 52)
	coldL := matrix.Tril(grgen.RMAT(6, 4, 53))
	coldG := grgen.ErdosRenyi(1<<7, 4, 54)
	var reqs []masked.BatchReq
	for r := 0; r < 3; r++ { // hot duplicates
		reqs = append(reqs,
			masked.BatchReq{M: hotL.Pattern(), A: hotL, B: hotL, Opts: []masked.Op{masked.WithAccumulate(masked.PlusPair())}},
			masked.BatchReq{M: hotG.Pattern(), A: hotG, B: hotG})
	}
	reqs = append(reqs,
		masked.BatchReq{M: coldL.Pattern(), A: coldL, B: coldL, Opts: []masked.Op{masked.WithAccumulate(masked.PlusPair())}},
		masked.BatchReq{M: coldG.Pattern(), A: coldG, B: coldG, Opts: []masked.Op{masked.WithComplement()}})
	b.Run("serialized", func(b *testing.B) {
		s := masked.NewSession()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := s.Multiply(ctx, r.M, r.A, r.B, r.Opts...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch-inflight8", func(b *testing.B) {
		s := masked.NewSession(masked.WithInflight(8))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range s.MultiplyBatch(ctx, reqs) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}
