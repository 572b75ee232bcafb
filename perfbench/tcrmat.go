package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/masked"
)

// tc-rmat: one caller in a closed loop on one masked.Session, each op one
// Session.TriangleCount over a seeded corpus of skewed R-MAT graphs.

// tcState is a set-up tc-rmat workload.
type tcState struct {
	sess   *masked.Session
	graphs []*masked.Matrix
	want   []int64 // triangle counts from SS:SAXPY, per graph
}

// tcShape is the corpus shape: graph count, R-MAT scale and edge factor.
func tcShape(short bool) (graphs, scale, edgeFactor int) {
	if short {
		return 2, 9, 8
	}
	return 3, 13, 16
}

// relabel is the first step of TriangleCount: degree-descending
// relabeling and the strictly lower triangle L.
func relabel(g *masked.Matrix) *masked.Matrix {
	return matrix.Tril(matrix.Permute(g, matrix.DegreeDescPerm(g)))
}

var plusPair = masked.WithAccumulate(masked.PlusPair())

// setupTC builds the corpus, the reference counts (SS:SAXPY on the same
// product, on a separate session), the session under test, its cold first
// op and a warm-up round over the corpus.
func setupTC(cfg config, t *tally) (*tcState, error) {
	ctx := context.Background()
	n, scale, ef := tcShape(cfg.short)
	st := &tcState{sess: masked.NewSession(masked.WithThreads(threads()))}
	ref := masked.NewSession(masked.WithThreads(threads()))
	for k := 0; k < n; k++ {
		g := grgen.RMAT(scale, ef, mixSeed(cfg.seed, uint64(k+1)))
		l := relabel(g)
		c, err := ref.SSSaxpy(ctx, l.Pattern(), l, l, plusPair)
		if err != nil {
			return nil, fmt.Errorf("reference count: %w", err)
		}
		st.graphs = append(st.graphs, g)
		st.want = append(st.want, int64(matrix.Sum(c)))
	}
	for round := 0; round < 2; round++ { // cold ops, then one warm round
		for k := range st.graphs {
			t.add(st.op(ctx, k))
		}
	}
	return st, nil
}

// op runs one triangle count on graph k and verifies it.
func (st *tcState) op(ctx context.Context, k int) bool {
	res, err := st.sess.TriangleCount(ctx, st.graphs[k])
	return err == nil && res.Triangles == st.want[k]
}

func runTC(cfg config) (map[string]metric, tally, error) {
	var t tally
	st, setups, err := timeSetup(func() (*tcState, error) { return setupTC(cfg, &t) }, func(*tcState) {})
	if err != nil {
		return nil, t, err
	}
	ctx := context.Background()
	var lat []float64
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; time.Now().Before(deadline); k++ {
		t0 := time.Now()
		ok := st.op(ctx, k%len(st.graphs))
		lat = append(lat, ms(time.Since(t0)))
		t.add(ok)
	}
	return endToEnd(lat, time.Since(start), setups), t, nil
}

// tcSteps are the step times of one traced op.
type tcSteps struct {
	relabel, flopsCount, multiply, reduce time.Duration
	flops                                 int64
}

func (s tcSteps) sum() time.Duration { return s.relabel + s.flopsCount + s.multiply + s.reduce }

// tracedOp runs the steps TriangleCount runs, each in a span, and checks
// the count against the reference.
func (st *tcState) tracedOp(ctx context.Context, tr *tracer, op int64, k int) (tcSteps, bool) {
	var (
		s   tcSteps
		l   *masked.Matrix
		c   *masked.Matrix
		err error
		n   int64
	)
	root := tr.begin("tc.op", op, -1)
	s.relabel = tr.do("matrix.relabel", op, root, func() { l = relabel(st.graphs[k]) })
	s.flopsCount = tr.do("core.flops", op, root, func() { s.flops = core.Flops(l, l, 0) })
	s.multiply = tr.do("core.multiply", op, root, func() {
		c, err = st.sess.Multiply(ctx, l.Pattern(), l, l, plusPair)
	})
	if err != nil {
		tr.end(root)
		return s, false
	}
	s.reduce = tr.do("apps.reduce", op, root, func() { n = int64(matrix.Sum(c)) })
	tr.end(root)
	return s, n == st.want[k]
}

// tracedTC is the per-layer run of tc-rmat. The traced loop alternates an
// untraced TriangleCount with a traced op over the same graph, so the
// trace overhead is measured under the same conditions; the probes then
// time the product of the corpus's first graph under every variant, both
// baselines, one thread and a cold planner. With tr nil the loop's spans
// are timed but not recorded and no trace.* metric is reported.
func tracedTC(cfg config, tr *tracer) (map[string]metric, tally, error) {
	var t tally
	st, err := setupTC(cfg, &t)
	if err != nil {
		return nil, t, err
	}
	runtime.GC()
	ctx := context.Background()
	rounds := 8
	if cfg.short {
		rounds = 2
	}
	var (
		untraced, traced, steps       []float64
		relabelMs, multiplyMs, reduce []float64
		flops                         int64
		multiplySum                   time.Duration
		allocBytes                    uint64
		poolGets, poolMisses          int64
		ops                           int64
	)
	var m0, m1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		for k := range st.graphs {
			p0 := st.sess.Stats().DriverPool
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			ok := st.op(ctx, k)
			untraced = append(untraced, ms(time.Since(t0)))
			runtime.ReadMemStats(&m1)
			p1 := st.sess.Stats().DriverPool
			allocBytes += m1.TotalAlloc - m0.TotalAlloc
			poolGets += p1.Gets - p0.Gets
			poolMisses += p1.Misses - p0.Misses
			t.add(ok)

			t0 = time.Now()
			s, ok := st.tracedOp(ctx, tr, ops, k)
			traced = append(traced, ms(time.Since(t0)))
			t.add(ok)
			ops++
			steps = append(steps, ms(s.sum()))
			relabelMs = append(relabelMs, ms(s.relabel))
			multiplyMs = append(multiplyMs, ms(s.multiply))
			reduce = append(reduce, ms(s.reduce))
			flops += s.flops
			multiplySum += s.multiply
		}
	}
	out := map[string]metric{
		"matrix.relabel_ms":    {median(relabelMs), "ms"},
		"core.multiply_ms":     {median(multiplyMs), "ms"},
		"apps.reduce_ms":       {median(reduce), "ms"},
		"core.flops":           {float64(flops) / float64(ops), "count"},
		"core.gflops":          {2 * float64(flops) / multiplySum.Seconds() / 1e9, "GFLOP/s"},
		"core.pool_miss_ratio": {float64(poolMisses) / float64(max(poolGets, 1)), "ratio"},
		"core.alloc_mb_per_op": {float64(allocBytes) / float64(len(untraced)) / (1 << 20), "MiB"},
	}
	if tr != nil {
		for k, v := range overheadMetrics(untraced, traced, steps) {
			out[k] = v
		}
	}
	probes, pt, err := st.probe(cfg)
	t.merge(pt)
	if err != nil {
		return nil, t, err
	}
	for k, v := range probes {
		out[k] = v
	}
	return out, t, nil
}

// probe times the corpus's first product under the Auto planner at two
// threads and one, every pinned variant, both SuiteSparse-style
// baselines, and a cold plan analysis. Repetitions are interleaved so
// host drift hits every candidate alike; each result is checked against
// the reference count.
func (st *tcState) probe(cfg config) (map[string]metric, tally, error) {
	var t tally
	ctx := context.Background()
	l := relabel(st.graphs[0])
	want := st.want[0]
	reps := 3
	if cfg.short {
		reps = 1
	}
	timeMul := func(run func() (*masked.Matrix, error)) float64 {
		t0 := time.Now()
		c, err := run()
		d := ms(time.Since(t0))
		t.add(err == nil && int64(matrix.Sum(c)) == want)
		return d
	}
	variants := masked.Variants()
	var auto2, auto1, dot, saxpy, analyze []float64
	perVariant := make([][]float64, len(variants))
	for r := 0; r < reps; r++ {
		auto2 = append(auto2, timeMul(func() (*masked.Matrix, error) {
			return st.sess.Multiply(ctx, l.Pattern(), l, l, plusPair)
		}))
		auto1 = append(auto1, timeMul(func() (*masked.Matrix, error) {
			return st.sess.Multiply(ctx, l.Pattern(), l, l, plusPair, masked.WithThreads(1))
		}))
		for i, v := range variants {
			perVariant[i] = append(perVariant[i], timeMul(func() (*masked.Matrix, error) {
				return st.sess.Multiply(ctx, l.Pattern(), l, l, plusPair, masked.WithVariant(v))
			}))
		}
		dot = append(dot, timeMul(func() (*masked.Matrix, error) {
			return st.sess.SSDot(ctx, l.Pattern(), l, l, plusPair)
		}))
		saxpy = append(saxpy, timeMul(func() (*masked.Matrix, error) {
			return st.sess.SSSaxpy(ctx, l.Pattern(), l, l, plusPair)
		}))
		for i := 0; i < 3; i++ {
			fresh := masked.NewSession(masked.WithThreads(threads()))
			t0 := time.Now()
			p := fresh.Explain(l.Pattern(), l, l, plusPair)
			analyze = append(analyze, float64(time.Since(t0))/float64(time.Microsecond))
			if p == nil {
				return nil, t, fmt.Errorf("cold plan: no plan")
			}
		}
	}
	autoMs := median(auto2)
	out := map[string]metric{
		"planner.analyze_us":      {median(analyze), "us"},
		"parallel.speedup_2t":     {median(auto1) / autoMs, "ratio"},
		"baseline.ssdot_ms":       {median(dot), "ms"},
		"baseline.sssaxpy_ms":     {median(saxpy), "ms"},
		"core.speedup_vs_ssdot":   {median(dot) / autoMs, "ratio"},
		"core.speedup_vs_sssaxpy": {median(saxpy) / autoMs, "ratio"},
		"core.probe_multiply_ms":  {autoMs, "ms"},
		"parallel.multiply_1t_ms": {median(auto1), "ms"},
	}
	variantMs := make([]float64, len(variants))
	for i, v := range variants {
		variantMs[i] = median(perVariant[i])
		out["core.variant_ms."+v.Name()] = metric{variantMs[i], "ms"}
	}
	out["planner.best_variant_ms"] = metric{minOf(variantMs), "ms"}
	out["planner.regret"] = metric{autoMs / minOf(variantMs), "ratio"}
	return out, t, nil
}
