package masked

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/planner"
)

// sameBits asserts bit-identical matrices (pattern and Float64bits).
func sameBits(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil matrix (got %v, want %v)", label, got == nil, want == nil)
	}
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !matrix.Equal(got, want, eq) {
		t.Fatalf("%s: results differ (got nnz=%d, want nnz=%d)", label, got.NNZ(), want.NNZ())
	}
}

// graphStream builds a deterministic insert/delete stream over an n×n
// graph: symmetric pairs so graph invariants (masks = adjacency) hold.
func graphStream(rng *rand.Rand, n Index, rounds, per int) [][]Update {
	out := make([][]Update, rounds)
	for r := range out {
		batch := make([]Update, 0, 2*per)
		for k := 0; k < per; k++ {
			u := Index(rng.Intn(int(n)))
			v := Index(rng.Intn(int(n)))
			if u == v {
				continue
			}
			del := rng.Intn(3) == 0
			batch = append(batch,
				Update{Row: u, Col: v, Val: 1, Delete: del},
				Update{Row: v, Col: u, Val: 1, Delete: del})
		}
		out[r] = batch
	}
	return out
}

// TestStreamEquivalence is the session-level half of the incremental-vs-
// rebuild battery (internal/core/delta_equiv_test.go covers the full
// variant × mask mode × semiring × schedule matrix): the planner path and a
// sample of pinned variants, under normal and complemented masks and all
// three named semirings, must produce per-prefix output bit-identical to
// a from-scratch Multiply on the compacted graph — including across a
// mid-stream Compact. The graph's last row is a hub, so its row-cost
// profile is skewed and the full Auto products claim equal-cost spans (the
// frontier sub-products, far below 256 rows, take equal-row chunks); under
// a model that prices hash probes low, Auto plans Hash.
func TestStreamEquivalence(t *testing.T) {
	ctx := context.Background()
	const n = 320
	hub := &COO{NRows: n, NCols: n}
	for j := Index(0); j < n-1; j++ {
		hub.Row, hub.Col, hub.Val = append(hub.Row, n-1), append(hub.Col, j), append(hub.Val, 1)
	}
	base := Tril(ErdosRenyi(n, 6, 11))
	base = matrix.EWiseAdd(base, FromCOO(hub), func(x, _ float64) float64 { return x })
	cheapHash := planner.DefaultModel()
	cheapHash.HashUnit = 1e-6
	rng := rand.New(rand.NewSource(77))
	stream := make([][]Update, 6)
	for r := range stream {
		batch := make([]Update, 4)
		for k := range batch {
			// Strictly-lower-triangular entries keep L shape under updates.
			i := Index(rng.Intn(n-1)) + 1
			j := Index(rng.Intn(int(i)))
			batch[k] = Update{Row: i, Col: j, Val: 1, Delete: rng.Intn(3) == 0}
		}
		stream[r] = batch
	}
	configs := []struct {
		name  string
		opts  []Op
		model *planner.Model
	}{
		{"auto", nil, nil},
		{"auto-complement", []Op{WithComplement()}, nil},
		{"auto-hash-cost", nil, cheapHash},
		{"pinned-msa1p", []Op{WithVariant(Variant{Alg: MSA, Phase: OnePhase})}, nil},
		{"pinned-heap2p", []Op{WithVariant(Variant{Alg: Heap, Phase: TwoPhase})}, nil},
	}
	semirings := []struct {
		name string
		op   Op
	}{
		{"arithmetic", WithAccumulate(Arithmetic())},
		{"plus-pair", WithAccumulate(PlusPair())},
		{"min-plus", WithAccumulate(MinPlus())},
	}
	for _, cfg := range configs {
		for _, sr := range semirings {
			t.Run(cfg.name+"/"+sr.name, func(t *testing.T) {
				s := NewSession(WithThreads(2))
				if cfg.model != nil {
					s.cache.SetModel(cfg.model)
					pl := s.Explain(base.Pattern(), base, base)
					if pl.Schedule() != "cost-balanced" || pl.Blocks[0].Alg != Hash {
						t.Fatalf("test premise broken: the plan is not Hash, cost-balanced:\n%s", pl.Explain())
					}
				}
				g, err := NewDeltaMatrix(base.Clone())
				if err != nil {
					t.Fatal(err)
				}
				opts := append([]Op{sr.op}, cfg.opts...)
				p := s.NewDeltaProduct(g, g, g, opts...)
				check := func(round int) {
					t.Helper()
					got, err := s.MultiplyDelta(ctx, p)
					if err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					cur := g.Current()
					want, err := s.Multiply(ctx, cur.Pattern(), cur, cur, opts...)
					if err != nil {
						t.Fatalf("round %d rebuild: %v", round, err)
					}
					sameBits(t, cfg.name+"/"+sr.name, got, want)
				}
				check(-1)
				for r, batch := range stream {
					if _, err := s.Update(ctx, p, batch); err != nil {
						t.Fatalf("round %d update: %v", r, err)
					}
					if r == len(stream)/2 {
						p.Compact()
					}
					check(r)
				}
			})
		}
	}
}

// mixedPlanOperands builds n×n operands (n = 4096) whose Auto plan is
// mixed: the top half of the rows has a dense mask over about one flop per
// row, the bottom half a two-entry mask over about 8192 flops per row.
func mixedPlanOperands() (m, a, b *Matrix) {
	const n, half = 4096, 2048
	build := func(row func(i Index) []Index) *Matrix {
		coo := &COO{NRows: n, NCols: n}
		for i := Index(0); i < n; i++ {
			for _, j := range row(i) {
				coo.Row, coo.Col, coo.Val = append(coo.Row, i), append(coo.Col, j), append(coo.Val, 1)
			}
		}
		return FromCOO(coo)
	}
	span := func(count, step, off Index) []Index {
		out := make([]Index, count)
		for c := range out {
			out[c] = (Index(c)*step + off) % n
		}
		return out
	}
	b = build(func(i Index) []Index {
		if i < 64 {
			return span(256, 16, i)
		}
		return []Index{i}
	})
	a = build(func(i Index) []Index {
		if i < half {
			return []Index{64 + i%(n-64)}
		}
		return span(32, 1, i%64)
	})
	m = build(func(i Index) []Index {
		if i < half {
			return span(256, 7, i)
		}
		return []Index{i % 64, (i + 13) % 64}
	})
	return m, a, b
}

// TestStreamMixedPlan streams updates into a product whose Auto plan is
// mixed, over overlays that are not aliased. Every prefix must be
// bit-identical to Session.Multiply on the overlays' current content,
// across auto-compactions that re-analyze the product's plan, and no
// refresh may add a plan-cache miss: frontier sub-products run on rows cut
// from the product's own plan.
func TestStreamMixedPlan(t *testing.T) {
	ctx := context.Background()
	baseM, baseA, baseB := mixedPlanOperands()
	s := NewSession(WithThreads(2))
	var ov [3]*DeltaMatrix
	for k, base := range []*Matrix{baseM, baseA, baseB} {
		d, err := NewDeltaMatrix(base)
		if err != nil {
			t.Fatal(err)
		}
		ov[k] = d
	}
	ov[1].SetMergeThreshold(0.0005) // A auto-compacts every few batches
	p := s.NewDeltaProduct(ov[0], ov[1], ov[2])
	if _, err := s.MultiplyDelta(ctx, p); err != nil {
		t.Fatal(err)
	}
	if !p.plan.Mixed() {
		t.Fatalf("fixture plan should be mixed:\n%s", p.plan.Explain())
	}
	rng := rand.New(rand.NewSource(23))
	const n = 4096
	ops := []DeltaOperand{DeltaM, DeltaA, DeltaB, DeltaAll}
	firstBase, replans := ov[1].Base(), 0
	for r := 0; r < 24; r++ {
		batch := make([]Update, 8)
		for k := range batch {
			batch[k] = Update{Row: Index(rng.Intn(n)), Col: Index(rng.Intn(n)), Val: 1, Delete: rng.Intn(3) == 0}
		}
		plan := p.plan
		misses := s.Stats().Cache.Misses
		got, err := s.UpdateOperand(ctx, p, ops[r%len(ops)], batch)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if d := s.Stats().Cache.Misses - misses; d != 0 {
			t.Fatalf("round %d: refresh added %d plan-cache misses", r, d)
		}
		if p.plan != plan {
			replans++
		}
		cm, ca, cb := ov[0].Current(), ov[1].Current(), ov[2].Current()
		want, err := s.Multiply(ctx, cm.Pattern(), ca, cb)
		if err != nil {
			t.Fatalf("round %d rebuild: %v", r, err)
		}
		sameBits(t, fmt.Sprintf("round %d", r), got, want)
	}
	if ov[1].Base() == firstBase || replans == 0 {
		t.Fatalf("A never auto-compacted or the plan was never re-analyzed (%d re-analyses)", replans)
	}
}

// TestStreamUpdateReturnsRefreshedOutput: Update's return value is the
// refreshed full output (same matrix Output() then reports), and clean
// refreshes are no-ops returning the cached output.
func TestStreamUpdateReturnsRefreshedOutput(t *testing.T) {
	ctx := context.Background()
	_, l := tcOperands(7, 4, 5)
	s := NewSession(WithThreads(2))
	g, err := NewDeltaMatrix(l)
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewDeltaProduct(g, g, g, WithAccumulate(PlusPair()))
	c1, err := s.Update(ctx, p, []Update{{Row: 1, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Output() != c1 {
		t.Fatal("Output() disagrees with Update's return")
	}
	c2, err := s.MultiplyDelta(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("clean MultiplyDelta rebuilt the output")
	}
}

// TestStreamForeignSessionRejected: refreshing a product through a session
// that did not create it must error rather than split cache ownership.
func TestStreamForeignSessionRejected(t *testing.T) {
	ctx := context.Background()
	_, l := tcOperands(6, 4, 3)
	s1, s2 := NewSession(), NewSession()
	g, _ := NewDeltaMatrix(l)
	p := s1.NewDeltaProduct(g, g, g)
	if _, err := s2.MultiplyDelta(ctx, p); err == nil {
		t.Fatal("foreign session accepted the product")
	}
}

// armDeltaApplyPanic arms the delta.apply chaos point for n firings.
func armDeltaApplyPanic(t *testing.T, n int) {
	t.Helper()
	r := faultinject.New(1)
	r.Add(faultinject.Rule{Point: faultinject.PointDeltaApply, Every: 1, Limit: n})
	faultinject.Set(r)
	t.Cleanup(func() { faultinject.Set(nil) })
}

// TestStreamPanicRecoveryMidUpdate: an injected panic between batch apply
// and incremental recompute resolves to a *PanicError, retains the batch
// in the dirty frontier, and a retried MultiplyDelta completes the update
// bit-identically to a rebuild — with no arbiter-budget leak and the
// session's panic counter advanced.
func TestStreamPanicRecoveryMidUpdate(t *testing.T) {
	ctx := context.Background()
	_, l := tcOperands(7, 4, 31)
	s := NewSession(WithThreads(2))
	g, err := NewDeltaMatrix(l)
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewDeltaProduct(g, g, g, WithAccumulate(PlusPair()))
	if _, err := s.MultiplyDelta(ctx, p); err != nil {
		t.Fatal(err)
	}

	armDeltaApplyPanic(t, 1)
	_, err = s.Update(ctx, p, []Update{{Row: 2, Col: 1, Val: 1}, {Row: 3, Col: 0, Val: 1}})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("faulted update: err %v, want ErrPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("panic error carries no stack: %#v", err)
	}
	if got := s.Stats().Panics; got != 1 {
		t.Fatalf("session counted %d panics, want 1", got)
	}
	if st := s.Stats().Arbiter; st.Inflight != 0 || st.Free != st.Budget {
		t.Fatalf("panicked update leaked arbiter budget: %+v", st)
	}

	// The batch landed before the panic; the retry must fold it in.
	got, err := s.MultiplyDelta(ctx, p)
	if err != nil {
		t.Fatalf("retry after recovered panic: %v", err)
	}
	cur := g.Current()
	want, err := s.Multiply(ctx, cur.Pattern(), cur, cur, WithAccumulate(PlusPair()))
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "retry", got, want)
}

// TestStreamKernelPanicRetry: on a plus-pair product a refresh patches
// every frontier row by count changes, and the kernel panic point fires
// inside the refresh after those changes were derived for the rows the
// batch changes and for the rows it reaches only through B, before the
// splice. The retried MultiplyDelta must derive them afresh, applying none
// twice, and come out bit-identical to a rebuild, batch after batch.
func TestStreamKernelPanicRetry(t *testing.T) {
	ctx := context.Background()
	_, l := tcOperands(10, 8, 5)
	s := NewSession(WithThreads(2))
	g, err := NewDeltaMatrix(l)
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewDeltaProduct(g, g, g, WithAccumulate(PlusPair()))
	if _, err := s.MultiplyDelta(ctx, p); err != nil {
		t.Fatal(err)
	}
	stream := newSlidingStream(l, 2, 16, 3)
	for round := 0; round < 4; round++ {
		batch := stream.next()
		armKernelPanic(t, 1)
		if _, err := s.Update(ctx, p, batch); !errors.Is(err, ErrPanic) {
			t.Fatalf("round %d: faulted update: err %v, want ErrPanic", round, err)
		}
		cur := g.Current()
		if n := patchedRows(cur, batch); n == 0 {
			t.Fatalf("round %d: test premise broken: the batch reaches no row only through B", round)
		}
		got, err := s.MultiplyDelta(ctx, p)
		if err != nil {
			t.Fatalf("round %d: retry after recovered panic: %v", round, err)
		}
		want, err := s.Multiply(ctx, cur.Pattern(), cur, cur, WithAccumulate(PlusPair()))
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("round %d retry", round), got, want)
	}
	if got := s.Stats().Panics; got != 4 {
		t.Fatalf("session counted %d panics, want 4", got)
	}
}

// patchedRows counts the rows of the triangle product on g whose counts a
// graph-stream batch changes only through B: rows i the batch leaves
// alone that hold g(i,k) and g(i,j) for an updated entry (k, j).
func patchedRows(g *Matrix, batch []Update) int {
	touched := map[Index]bool{}
	for _, u := range batch {
		touched[u.Row] = true
	}
	n := 0
	for i := Index(0); i < g.NRows; i++ {
		if touched[i] {
			continue
		}
		cols, _ := g.Row(i)
		for _, u := range batch {
			_, hasK := slices.BinarySearch(cols, u.Row)
			if _, hasJ := slices.BinarySearch(cols, u.Col); hasK && hasJ {
				n++
				break
			}
		}
	}
	return n
}

// TestStreamConcurrentUpdateMultiplyServe mirrors the PR 9 chaos-test
// style for the streaming path: one goroutine streams Updates on a
// DeltaProduct while others run one-shot Multiplies and MultiplyBatch calls
// on the same session, under -race in CI. Afterwards the incremental output
// must be bit-identical to a rebuild, every goroutine must exit (leak
// check), and the arbiter budget must drain fully.
func TestStreamConcurrentUpdateMultiplyServe(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	const rounds = 20
	s := NewSession(WithThreads(4), WithInflight(2))
	_, l := tcOperands(8, 6, 17)
	g, err := NewDeltaMatrix(l)
	if err != nil {
		t.Fatal(err)
	}
	p := s.NewDeltaProduct(g, g, g, WithAccumulate(PlusPair()))
	if _, err := s.MultiplyDelta(ctx, p); err != nil {
		t.Fatal(err)
	}
	stream := graphStream(rand.New(rand.NewSource(4)), l.NRows, rounds, 3)
	// Keep streamed edges strictly lower-triangular (graph = L).
	for r := range stream {
		keep := stream[r][:0]
		for _, u := range stream[r] {
			if u.Col < u.Row {
				keep = append(keep, u)
			}
		}
		stream[r] = keep
	}

	lp2, l2 := tcOperands(7, 4, 99)
	var wg sync.WaitGroup
	errc := make(chan error, 3)
	wg.Add(2)
	go func() { // streaming updates
		defer wg.Done()
		for _, batch := range stream {
			if _, err := s.Update(ctx, p, batch); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() { // one-shot multiplies on unrelated operands
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := s.Multiply(ctx, lp2, l2, l2, WithAccumulate(PlusPair())); err != nil {
				errc <- err
				return
			}
		}
	}()
	served := 0
	wg.Add(1)
	go func() { // batched requests on the same session
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for k, res := range s.MultiplyBatch(ctx, []BatchReq{{M: lp2, A: l2, B: l2, Opts: []Op{WithAccumulate(PlusPair())}}}) {
				if res.Err != nil {
					errc <- fmt.Errorf("round %d batch response %d: %w", i, k, res.Err)
					return
				}
				served++
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if served != rounds {
		t.Fatalf("served %d responses, want %d", served, rounds)
	}

	got, err := s.MultiplyDelta(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	cur := g.Current()
	want, err := s.Multiply(ctx, cur.Pattern(), cur, cur, WithAccumulate(PlusPair()))
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "concurrent stream", got, want)
	if st := s.Stats().Arbiter; st.Inflight != 0 || st.Free != st.Budget {
		t.Fatalf("arbiter budget leaked: %+v", st)
	}
	if n := s.Stats().Panics; n != 0 {
		t.Fatalf("unexpected recovered panics: %d", n)
	}
	waitGoroutines(t, base, 2)
}

// waitGoroutines polls until the goroutine count settles back to at most
// base+slack, failing the test when it does not within the deadline — the
// leak check of the serving teardown tests.
func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC() // flush pooled finalizer work so counts settle
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after concurrent serving: %d live, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
