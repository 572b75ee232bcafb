package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/accum"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// TestComputeRowCosts: the profile's prefix must be monotone, sized
// nrows+1, and sum to flops + nnz(M) + nrows (one unit per row).
func TestComputeRowCosts(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randCSR(r, 40, 30, 0.1)
	b := randCSR(r, 30, 50, 0.1)
	m := randCSR(r, 40, 50, 0.2).Pattern()
	rc := ComputeRowCosts(m, a.Pattern(), b.Pattern(), 2)
	if rc == nil || len(rc.Prefix) != int(m.NRows)+1 {
		t.Fatalf("prefix length %d, want %d", len(rc.Prefix), m.NRows+1)
	}
	for i := 1; i < len(rc.Prefix); i++ {
		if rc.Prefix[i] < rc.Prefix[i-1] {
			t.Fatalf("prefix not monotone at %d", i)
		}
	}
	want := Flops(a, b, 1) + int64(m.NNZ()) + int64(m.NRows)
	if got := rc.Total(); got != want {
		t.Fatalf("total cost %d, want flops+nnz(M)+nrows = %d", got, want)
	}
	if rc.MaxRow <= 0 {
		t.Fatalf("MaxRow = %d, want positive", rc.MaxRow)
	}
	// Degenerate operands yield no profile.
	if rc := ComputeRowCosts(&matrix.Pattern{}, a.Pattern(), b.Pattern(), 1); rc != nil {
		t.Fatal("degenerate mask should produce a nil profile")
	}
}

// TestComputeRowCostsSameAcrossThreads: the nnz-balanced spans change who
// sweeps which rows, never the profile. On a degree-oriented R-MAT graph,
// whose rows are skewed and out of degree order, and on a uniform graph,
// Prefix and MaxRow must match the one-thread sweep at 2 and 3 threads.
func TestComputeRowCostsSameAcrossThreads(t *testing.T) {
	x := matrix.DegreeTril(grgen.RMAT(12, 16, 3), 1)
	er := grgen.ErdosRenyi(3000, 12, 4).Pattern()
	for _, tc := range []struct {
		name string
		g    *matrix.Pattern
	}{{"rmat-oriented", x}, {"er", er}} {
		want := ComputeRowCosts(tc.g, tc.g, tc.g, 1)
		for _, threads := range []int{2, 3} {
			got := ComputeRowCosts(tc.g, tc.g, tc.g, threads)
			if !slices.Equal(got.Prefix, want.Prefix) || got.MaxRow != want.MaxRow {
				t.Fatalf("%s at %d threads: profile differs from one thread (MaxRow %d, want %d)",
					tc.name, threads, got.MaxRow, want.MaxRow)
			}
		}
	}
}

// schedCase is one point of the batteries' schedule axis: the cost profile
// a product runs with, which alone decides its schedule.
type schedCase struct {
	name string
	rc   *RowCosts
}

// schedCases returns the schedule axis over the operands' profile costs:
// no profile (equal-row chunks) and the profile marked skewed (equal-cost
// spans), plus, with unskewed set, the profile marked unskewed (equal-row
// chunks again).
func schedCases(costs *RowCosts, unskewed bool) []schedCase {
	skewed := *costs
	skewed.Skewed = true
	cases := []schedCase{{"nil", nil}, {"skewed", &skewed}}
	if unskewed {
		flat := *costs
		flat.Skewed = false
		cases = append(cases, schedCase{"unskewed", &flat})
	}
	return cases
}

// TestSchedPrefixResolution: the drivers must engage cost scheduling only
// when the profile is skewed, and must fall back to equal-row chunking on
// stale profiles (wrong length) rather than misschedule.
func TestSchedPrefixResolution(t *testing.T) {
	nrows := Index(8)
	prefix := make([]int64, nrows+1)
	cases := []struct {
		name string
		rc   *RowCosts
		want bool
	}{
		{"nil profile", nil, false},
		{"stale length", &RowCosts{Prefix: make([]int64, 5), Skewed: true}, false},
		{"unskewed", &RowCosts{Prefix: prefix}, false},
		{"skewed", &RowCosts{Prefix: prefix, Skewed: true}, true},
	}
	for _, tc := range cases {
		if got := schedPrefix(Options{RowCosts: tc.rc}, nrows) != nil; got != tc.want {
			t.Errorf("%s: cost scheduling engaged=%v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestNewRowCostsSkew: the skew verdict fires on heavy-tailed profiles and
// stays off for flat ones and tiny row spaces.
func TestNewRowCostsSkew(t *testing.T) {
	flat := make([]int64, schedMinRows+1)
	for i := 1; i < len(flat); i++ {
		flat[i] = flat[i-1] + 10
	}
	if NewRowCosts(flat, 10).Skewed {
		t.Error("flat profile marked skewed")
	}
	skew := make([]int64, schedMinRows+1)
	for i := 1; i < len(skew); i++ {
		skew[i] = skew[i-1] + 1
	}
	skew[len(skew)-1] += 100000 // one row dominates
	if !NewRowCosts(skew, 100001).Skewed {
		t.Error("heavy-tailed profile not marked skewed")
	}
	tiny := []int64{0, 1, 100001}
	if NewRowCosts(tiny, 100000).Skewed {
		t.Error("tiny row space marked skewed (scheduling cannot matter)")
	}
}

// TestSchedEquivalence: results must be bit-identical between equal-row and
// cost-balanced scheduling (no profile, an unskewed and a skewed one) for
// every variant, phase and grain — scheduling decides who computes which
// rows when, never what is computed.
func TestSchedEquivalence(t *testing.T) {
	g := grgen.RMAT(8, 8, 17) // power-law rows: the profile cost scheduling targets
	l := matrix.RelabelTril(g, 1)
	m, a, b := l.Pattern(), l, l
	sr := semiring.Arithmetic()
	costs := ComputeRowCosts(m, a.Pattern(), b.Pattern(), 0)
	if costs == nil {
		t.Fatal("no cost profile for the test graph")
	}
	want := Reference(m, a, b, sr, false)
	for _, v := range AllVariants() {
		for _, grain := range []int{1, 7, 64, 512} {
			for _, sc := range schedCases(costs, true) {
				opt := Options{Threads: 4, Grain: grain, RowCosts: sc.rc}
				got, err := MaskedSpGEMM(v, m, a, b, sr, opt)
				if err != nil {
					t.Fatalf("%s grain=%d profile=%s: %v", v.Name(), grain, sc.name, err)
				}
				if !matrix.Equal(got, want, eqF) {
					t.Fatalf("%s grain=%d profile=%s: result differs from reference", v.Name(), grain, sc.name)
				}
			}
		}
	}
}

// TestSchedEquivalenceComplement: same bit-identity under complemented
// masks (where the one-phase bound comes from flops, not the mask).
func TestSchedEquivalenceComplement(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	a := randCSR(r, 48, 48, 0.08)
	b := randCSR(r, 48, 48, 0.08)
	m := randCSR(r, 48, 48, 0.3).Pattern()
	sr := semiring.Arithmetic()
	costs := ComputeRowCosts(m, a.Pattern(), b.Pattern(), 0)
	want := Reference(m, a, b, sr, true)
	for _, v := range AllVariants() {
		if v.Alg == MCA {
			continue
		}
		for _, sc := range schedCases(costs, false) {
			opt := Options{Threads: 3, Grain: 5, Complement: true, RowCosts: sc.rc}
			got, err := MaskedSpGEMM(v, m, a, b, sr, opt)
			if err != nil {
				t.Fatalf("%s profile=%s: %v", v.Name(), sc.name, err)
			}
			if !matrix.Equal(got, want, eqF) {
				t.Fatalf("%s profile=%s: complement result differs from reference", v.Name(), sc.name)
			}
		}
	}
}

// TestSchedCancellationMidFlight: a context cancelled while a cost-balanced
// pass is in flight must abort the product promptly with ctx.Err() — the
// cost scheduler's claims observe the context exactly like equal-row chunks.
func TestSchedCancellationMidFlight(t *testing.T) {
	g := grgen.RMAT(9, 8, 5)
	l := matrix.Tril(g)
	m := l.Pattern()
	costs := ComputeRowCosts(m, l.Pattern(), l.Pattern(), 0)
	costs.Skewed = true // claim equal-cost spans
	started := make(chan struct{})
	var once sync.Once
	slow := semiring.Semiring[float64]{
		Name: "slow",
		Add:  func(x, y float64) float64 { return x + y },
		Mul: func(x, y float64) float64 {
			once.Do(func() { close(started) })
			time.Sleep(20 * time.Microsecond)
			return 1
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-started
		cancel()
	}()
	opt := Options{Threads: 4, RowCosts: costs, Ctx: ctx}
	_, err := MaskedSpGEMM(Variant{Alg: MSA, Phase: OnePhase}, m, l, l, slow, opt)
	if err != context.Canceled {
		t.Fatalf("mid-flight cancel under cost scheduling: got %v, want context.Canceled", err)
	}
}

// TestDriverPoolsWarmZeroMisses: after one warming call, the drivers take
// every scratch buffer (counts, offsets, bound bins) and the kernels every
// accumulator from the session arena — zero allocating fetches in steady
// state, for both phases, both schedules (no profile and a skewed one),
// every accumulator and a complemented Hash mask.
func TestDriverPoolsWarmZeroMisses(t *testing.T) {
	g := grgen.RMAT(9, 8, 29)
	l := matrix.RelabelTril(g, 1)
	m := l.Pattern()
	sr := semiring.Arithmetic()
	costs := ComputeRowCosts(m, l.Pattern(), l.Pattern(), 0)
	cases := []struct {
		v    Variant
		comp bool
	}{
		{v: Variant{Alg: MSA, Phase: OnePhase}},
		{v: Variant{Alg: MSA, Phase: TwoPhase}},
		{v: Variant{Alg: Hash, Phase: OnePhase}},
		{v: Variant{Alg: MCA, Phase: OnePhase}},
		{v: Variant{Alg: Heap, Phase: OnePhase}},
		{v: Variant{Alg: Inner, Phase: OnePhase}},
		{v: Variant{Alg: Hash, Phase: OnePhase}, comp: true},
	}
	for _, c := range cases {
		for _, sc := range schedCases(costs, false) {
			ws := NewWorkspaces()
			opt := Options{Threads: 2, RowCosts: sc.rc, Workspaces: ws, Complement: c.comp}
			if _, err := runBlock(c.v, m, l, l, sr, opt); err != nil { // warm the pools
				t.Fatal(err)
			}
			missesBefore := ws.PoolStatsSnapshot().Misses
			for rep := 0; rep < 3; rep++ {
				if _, err := runBlock(c.v, m, l, l, sr, opt); err != nil {
					t.Fatal(err)
				}
			}
			after := ws.PoolStatsSnapshot()
			if after.Misses != missesBefore {
				t.Errorf("%s complement=%v profile=%s: %d pool misses after warmup (gets %d); want 0",
					c.v.Name(), c.comp, sc.name, after.Misses-missesBefore, after.Gets)
			}
		}
	}
}

// TestDriverPoolsRetainBounded: one multiply larger than the arena's
// retain limit must not leave its scratch resident — the retained bytes,
// accumulators included, stay within the limit, and the MSAs it grew are
// evicted — and a small steady working set re-warms after it and again
// takes zero misses.
func TestDriverPoolsRetainBounded(t *testing.T) {
	sr := semiring.Arithmetic()
	small := matrix.RelabelTril(grgen.RMAT(7, 8, 31), 1)
	large := matrix.RelabelTril(grgen.RMAT(12, 8, 37), 1)
	v := Variant{Alg: MSA, Phase: OnePhase}
	ws := NewWorkspaces()
	ws.retainLimit = 128 << 10 // above small's working set, below large's
	opt := Options{Threads: 2, Workspaces: ws}
	multiply := func(l *matrix.CSR[float64]) {
		t.Helper()
		if _, err := MaskedSpGEMM(v, l.Pattern(), l, l, sr, opt); err != nil {
			t.Fatal(err)
		}
	}
	// retained checks the byte count against the lists and returns it, the
	// accumulators' share and the widest retained MSA.
	retained := func() (total, acc int64, widest int) {
		t.Helper()
		ws.drvMu.Lock()
		defer ws.drvMu.Unlock()
		for _, lists := range [][]freeList{ws.i64[:], ws.idx[:], ws.val[:], ws.acc[:]} {
			for _, l := range lists {
				for _, r := range l.free {
					total += r.bytes
				}
			}
		}
		for _, l := range ws.acc {
			for _, r := range l.free {
				acc += r.bytes
			}
		}
		for _, r := range ws.acc[accMSA].free {
			widest = max(widest, r.box.(*accum.MSA[float64]).Len())
		}
		if total != ws.drvRetained {
			t.Fatalf("retained lists hold %d bytes, counter says %d", total, ws.drvRetained)
		}
		return total, acc, widest
	}
	steadyMisses := func() int64 {
		multiply(small) // warm
		before := ws.PoolStatsSnapshot().Misses
		for rep := 0; rep < 3; rep++ {
			multiply(small)
		}
		return ws.PoolStatsSnapshot().Misses - before
	}
	if n := steadyMisses(); n != 0 {
		t.Fatalf("small working set: %d misses after warmup; want 0", n)
	}
	if _, acc, _ := retained(); acc == 0 {
		t.Fatal("small working set: no accumulator bytes retained")
	}
	multiply(large)
	if r, _, widest := retained(); r > ws.retainLimit || widest > int(small.NCols) {
		t.Fatalf("after an oversized multiply the arena retains %d bytes (limit %d) and an MSA of %d columns (small has %d)",
			r, ws.retainLimit, widest, small.NCols)
	}
	if n := steadyMisses(); n != 0 {
		t.Fatalf("small working set after an oversized multiply: %d misses after rewarming; want 0", n)
	}
	if r, _, _ := retained(); r > ws.retainLimit {
		t.Fatalf("steady state retains %d bytes; limit %d", r, ws.retainLimit)
	}
}

// TestOnePhaseZeroCopyFastPath: when every row exactly fills its bound (the
// output pattern equals the mask), the one-phase driver hands its bound bins
// to the caller without a stitch copy — and the result is still exact.
func TestOnePhaseZeroCopyFastPath(t *testing.T) {
	// Dense square operands: C = M .* (A·B) with a full mask and fully dense
	// product fills every mask slot.
	n := Index(24)
	coo := &matrix.COO[float64]{NRows: n, NCols: n}
	for i := Index(0); i < n; i++ {
		for j := Index(0); j < n; j++ {
			coo.Row = append(coo.Row, i)
			coo.Col = append(coo.Col, j)
			coo.Val = append(coo.Val, float64(1+(i+j)%3))
		}
	}
	dense := matrix.NewCSRFromCOO(coo, func(a, b float64) float64 { return a + b })
	m := dense.Pattern()
	sr := semiring.Arithmetic()
	want := Reference(m, dense, dense, sr, false)
	ws := NewWorkspaces()
	got, err := MaskedSpGEMM(Variant{Alg: MSA, Phase: OnePhase}, m, dense, dense, sr, Options{Threads: 2, Workspaces: ws})
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != m.NNZ() {
		t.Fatalf("test premise broken: output nnz %d != mask nnz %d (bound not exactly filled)", got.NNZ(), m.NNZ())
	}
	if !matrix.Equal(got, want, eqF) {
		t.Fatal("zero-copy fast path result differs from reference")
	}
	// The handed-over buffers must be independent: a second multiply on the
	// same workspaces must not corrupt the first result.
	snapshot := append([]Index(nil), got.Col...)
	if _, err := MaskedSpGEMM(Variant{Alg: MSA, Phase: OnePhase}, m, dense, dense, sr, Options{Threads: 2, Workspaces: ws}); err != nil {
		t.Fatal(err)
	}
	for i := range snapshot {
		if got.Col[i] != snapshot[i] {
			t.Fatal("second multiply corrupted the first zero-copy output")
		}
	}
}
