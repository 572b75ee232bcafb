package masked

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/parallel"
)

// armKernelPanic installs a registry that panics the first n kernel
// executions, then heals, and uninstalls it on cleanup.
func armKernelPanic(t *testing.T, n int) {
	t.Helper()
	r := faultinject.New(1)
	r.Add(faultinject.Rule{Point: faultinject.PointKernelPanic, Every: 1, Limit: n})
	faultinject.Set(r)
	t.Cleanup(func() { faultinject.Set(nil) })
}

// TestPanicIsolatedToRequest: an injected kernel panic costs exactly its
// own request — it resolves to a *PanicError wrapping ErrPanic, the arbiter
// budget drains fully, and the next identical request on the same session
// succeeds with a bit-identical result to an unfaulted session.
func TestPanicIsolatedToRequest(t *testing.T) {
	ctx := context.Background()
	lp, l := tcOperands(8, 4, 201)
	want, err := NewSession(WithThreads(2)).Multiply(ctx, lp, l, l, WithAccumulate(PlusPair()))
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession(WithThreads(4))
	armKernelPanic(t, 1)
	r := s.TryMultiply(ctx, lp, l, l, WithAccumulate(PlusPair()))
	if !errors.Is(r.Err, ErrPanic) {
		t.Fatalf("faulted request: err %v, want ErrPanic", r.Err)
	}
	var pe *PanicError
	if !errors.As(r.Err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("panic error carries no stack: %#v", r.Err)
	}
	if st := s.Stats().Arbiter; st.Inflight != 0 || st.Free != st.Budget {
		t.Fatalf("panicked request leaked arbiter budget: %+v", st)
	}
	if got := s.Stats().Panics; got != 1 {
		t.Fatalf("session counted %d panics, want 1", got)
	}

	// The registry's limit is spent; the same session must now succeed.
	r = s.TryMultiply(ctx, lp, l, l, WithAccumulate(PlusPair()))
	if r.Err != nil {
		t.Fatalf("healed request: %v", r.Err)
	}
	sameCSR(t, "healed", r.C, want)
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", st.Panics)
	}
}

// TestPanicSharedWithFollowers: coalesced followers of a panicked leader
// receive the leader's PanicError (a deterministic outcome, not retried),
// and the flight slot is free afterwards.
func TestPanicSharedWithFollowers(t *testing.T) {
	ctx := context.Background()
	lp, l := tcOperands(8, 4, 202)
	s := NewSession(WithThreads(4))
	armKernelPanic(t, 1)

	reqs := make([]BatchReq, 6)
	for i := range reqs {
		reqs[i] = BatchReq{M: lp, A: l, B: l, Opts: []Op{WithAccumulate(PlusPair())}}
	}
	res := s.MultiplyBatch(ctx, reqs, WithInflight(4))
	for i, r := range res {
		if !errors.Is(r.Err, ErrPanic) {
			t.Fatalf("member %d: err %v, want shared ErrPanic", i, r.Err)
		}
	}
	// One panic, shared: the leader recovered once, followers reused it.
	if got := s.Stats().Panics; got != 1 {
		t.Fatalf("session counted %d panics for one coalesced group, want 1", got)
	}
	if st := s.Stats().Arbiter; st.Inflight != 0 || st.Free != st.Budget {
		t.Fatalf("arbiter did not drain after coalesced panic: %+v", st)
	}
}

// TestWorkerPanicCrossesParallelBoundary: a panic injected on a parallel
// worker goroutine (not the request goroutine) still resolves the request
// with ErrPanic and the worker's own stack, via parallel.WorkerPanic.
func TestWorkerPanicCrossesParallelBoundary(t *testing.T) {
	ctx := context.Background()
	// Big enough that the arbiter grants this request several workers
	// (cost >= 2×parallel.CostPerWorker), so the kernels actually spawn
	// worker goroutines for the fault point to fire on.
	g := ErdosRenyi(16384, 10, 203)
	s := NewSession(WithThreads(4))
	r := faultinject.New(1)
	r.Add(faultinject.Rule{Point: faultinject.PointWorkerPanic, Every: 1, Limit: 1})
	faultinject.Set(r)
	defer faultinject.Set(nil)

	res := s.TryMultiply(ctx, g.Pattern(), g, g)
	if !errors.Is(res.Err, ErrPanic) {
		t.Fatalf("worker-panicked request: err %v, want ErrPanic", res.Err)
	}
	if st := s.Stats().Arbiter; st.Inflight != 0 || st.Free != st.Budget {
		t.Fatalf("worker panic leaked arbiter budget: %+v", st)
	}
	faultinject.Set(nil)
	if res := s.TryMultiply(ctx, g.Pattern(), g, g); res.Err != nil {
		t.Fatalf("session unusable after worker panic: %v", res.Err)
	}
}

// TestWorkerPanicDuringTriangleCount: a worker panic injected into each
// parallel pass of an adaptive triangle count in turn reaches the caller
// as a parallel.WorkerPanic and leaves the session sound: the next count
// on the same session is still exact. A count of arrays the session has
// not kept an operand for (a fresh Clone each time) runs four passes: the
// degree orientation, the two that build W and its row-cost profile, and
// the count. A count of a graph whose operand the session keeps runs the
// count alone, and a panic there leaves the kept operand sound.
func TestWorkerPanicDuringTriangleCount(t *testing.T) {
	ctx := context.Background()
	g := RMAT(12, 16, 9) // large enough that every pass runs two workers
	s := NewSession(WithThreads(2))
	want, err := s.TriangleCount(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	count := func(g *Matrix) (res TCResult, err error, caught any) {
		defer func() { caught = recover() }()
		res, err = s.TriangleCount(ctx, g)
		return res, err, nil
	}
	// inject panics at each worker start of a count of next() in turn,
	// counting g after each, and returns how many panicked.
	inject := func(label string, next func() *Matrix) int {
		panics := 0
		for k := 1; ; k++ {
			r := faultinject.New(1)
			r.Add(faultinject.Rule{Point: faultinject.PointWorkerPanic, Every: k, Limit: 1})
			faultinject.Set(r)
			_, _, caught := count(next())
			faultinject.Set(nil)
			if caught == nil {
				return panics // k is past the count's last worker start
			}
			if _, ok := caught.(parallel.WorkerPanic); !ok {
				t.Fatalf("%s: worker start %d: caught %T, want parallel.WorkerPanic", label, k, caught)
			}
			panics++
			res, err, caught := count(g)
			if caught != nil || err != nil || res.Triangles != want.Triangles {
				t.Fatalf("%s: count after a panic at worker start %d: %d triangles, err %v, panic %v; want %d",
					label, k, res.Triangles, err, caught, want.Triangles)
			}
		}
	}
	// Two worker starts in each of the four passes.
	if panics := inject("cold", g.Clone); panics < 8 {
		t.Fatalf("cold: only %d worker starts panicked; the count ran fewer parallel passes than expected", panics)
	}
	before := s.Stats().Cache
	if before.CountOperandBuilds == 0 {
		t.Fatal("repeated counts of one graph kept no count operand")
	}
	if panics := inject("kept", func() *Matrix { return g }); panics < 2 {
		t.Fatalf("kept: only %d worker starts panicked; want the count's two", panics)
	}
	if after := s.Stats().Cache; after.CountOperandBuilds != before.CountOperandBuilds || after.CountOperandReuses == before.CountOperandReuses {
		t.Fatalf("kept: count operands built %d -> %d, reused %d -> %d; want reuses only",
			before.CountOperandBuilds, after.CountOperandBuilds, before.CountOperandReuses, after.CountOperandReuses)
	}
}

// TestPanicDropsDirtyScratch: a custom semiring whose Mul panics mid-row
// leaves the worker's accumulator holding that row's state (Excluded marks,
// the complement insertion log, scattered A keys). The recovered panic must
// not return that scratch to the session's pool: every later complemented
// product on the same session must be byte-identical to a fresh session's.
func TestPanicDropsDirtyScratch(t *testing.T) {
	ctx := context.Background()
	a := ErdosRenyi(96, 8, 11)
	m := ErdosRenyi(96, 12, 12).Pattern()
	for _, name := range []string{"MSA-1P", "Inner-1P", "Inner-2P"} {
		t.Run(name, func(t *testing.T) {
			v, err := VariantByName(name)
			if err != nil {
				t.Fatal(err)
			}
			plain := []Op{WithVariant(v), WithComplement()}
			want, err := NewSession(WithThreads(1)).Multiply(ctx, m, a, a, plain...)
			if err != nil {
				t.Fatal(err)
			}

			var calls atomic.Int64
			boom := Arithmetic()
			boom.Name, boom.Ops = "boom", nil
			mul := boom.Mul
			boom.Mul = func(x, y float64) float64 {
				if calls.Add(1) == 500 { // mid-row, a few rows in
					panic("boom: Mul")
				}
				return mul(x, y)
			}
			s := NewSession(WithThreads(1))
			r := s.TryMultiply(ctx, m, a, a, append(plain, WithAccumulate(boom))...)
			if !errors.Is(r.Err, ErrPanic) {
				t.Fatalf("panicking semiring: err %v, want ErrPanic", r.Err)
			}
			for rep := 0; rep < 4; rep++ {
				r := s.TryMultiply(ctx, m, a, a, plain...)
				if r.Err != nil {
					t.Fatalf("product %d after the panic: %v", rep, r.Err)
				}
				sameCSR(t, fmt.Sprintf("product %d after the panic", rep), r.C, want)
			}
		})
	}
}
