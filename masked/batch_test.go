package masked

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// mixedBatch builds a batch exercising different operands, mask modes,
// semirings and a pinned variant, with a label per request.
func mixedBatch() ([]BatchReq, []string) {
	lp1, l1 := tcOperands(7, 4, 101)
	lp2, l2 := tcOperands(8, 8, 102)
	g := ErdosRenyi(256, 4, 103)
	return []BatchReq{
			{M: lp1, A: l1, B: l1, Opts: []Op{WithAccumulate(PlusPair())}},
			{M: lp2, A: l2, B: l2, Opts: []Op{WithAccumulate(PlusPair())}},
			{M: g.Pattern(), A: g, B: g},
			{M: g.Pattern(), A: g, B: g, Opts: []Op{WithComplement()}},
			{M: lp1, A: l1, B: l1, Opts: []Op{WithVariant(Variant{Alg: Hash, Phase: TwoPhase}), WithAccumulate(PlusPair())}},
			{M: g.Pattern(), A: g, B: g, Opts: []Op{WithAccumulate(MinPlus())}},
		},
		[]string{"tc-small", "tc-big", "square", "complement", "pinned", "minplus"}
}

// TestMultiplyBatchMatchesSequential: the batch path returns, per request
// and in request order, exactly what sequential Session.Multiply returns:
// response i must match the sequential product of request i.
func TestMultiplyBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	reqs, names := mixedBatch()
	seq := NewSession(WithThreads(2))
	want := make([]*Matrix, len(reqs))
	for i, r := range reqs {
		c, err := seq.Multiply(ctx, r.M, r.A, r.B, r.Opts...)
		if err != nil {
			t.Fatalf("sequential %s: %v", names[i], err)
		}
		want[i] = c
	}
	s := NewSession(WithThreads(4))
	res := s.MultiplyBatch(ctx, reqs, WithInflight(3))
	if len(res) != len(reqs) {
		t.Fatalf("got %d responses for %d requests", len(res), len(reqs))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", i, names[i], r.Err)
		}
		if r.Workers < 1 {
			t.Errorf("request %d (%s) ran with %d workers", i, names[i], r.Workers)
		}
		sameCSR(t, fmt.Sprintf("response %d (%s; order must be preserved)", i, names[i]), r.C, want[i])
	}
	if st := s.Stats().Arbiter; st.Admitted == 0 || st.Inflight != 0 || st.Free != st.Budget {
		t.Errorf("arbiter did not drain cleanly: %+v", st)
	}
}

// TestMultiplyBatchCoalesces: duplicate requests in one batch are computed
// once; every duplicate shares the leader's result object.
func TestMultiplyBatchCoalesces(t *testing.T) {
	lp, l := tcOperands(8, 4, 104)
	req := BatchReq{M: lp, A: l, B: l, Opts: []Op{WithAccumulate(PlusPair())}}
	reqs := make([]BatchReq, 12)
	for i := range reqs {
		reqs[i] = req
	}
	s := NewSession(WithThreads(4))
	res := s.MultiplyBatch(context.Background(), reqs, WithInflight(8))
	computed, coalesced := 0, 0
	var c *Matrix
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Coalesced {
			coalesced++
		} else {
			computed++
		}
		if c == nil {
			c = r.C
		} else if r.C != c {
			t.Fatalf("request %d received a distinct result object; duplicates must share", i)
		}
	}
	if computed == len(reqs) {
		t.Fatal("no request was coalesced")
	}
	if computed+coalesced != len(reqs) {
		t.Fatalf("computed %d + coalesced %d != %d", computed, coalesced, len(reqs))
	}
	// Distinct mask modes must NOT coalesce with each other.
	res2 := s.MultiplyBatch(context.Background(), []BatchReq{
		{M: lp, A: l, B: l},
		{M: lp, A: l, B: l, Opts: []Op{WithComplement()}},
	})
	if res2[0].Err != nil || res2[1].Err != nil {
		t.Fatalf("mask-mode batch errored: %v %v", res2[0].Err, res2[1].Err)
	}
	if res2[0].C == res2[1].C {
		t.Fatal("normal and complemented requests coalesced")
	}
}

// TestBatchDistinctOutcomesNotShared: a pinned variant that cannot run the
// request (MCA under complement) must fail alone — the identical-operand
// auto request succeeds, proving the coalescing key separates them.
func TestBatchDistinctOutcomesNotShared(t *testing.T) {
	g := ErdosRenyi(128, 4, 105)
	s := NewSession(WithThreads(2))
	res := s.MultiplyBatch(context.Background(), []BatchReq{
		{M: g.Pattern(), A: g, B: g, Opts: []Op{WithComplement()}},
		{M: g.Pattern(), A: g, B: g, Opts: []Op{WithComplement(), WithVariant(Variant{Alg: MCA, Phase: OnePhase})}},
	})
	if res[0].Err != nil {
		t.Fatalf("auto complement failed: %v", res[0].Err)
	}
	if res[1].Err == nil {
		t.Fatal("pinned MCA under complement must error")
	}
}

// TestBatchRespectsThreadCeiling: an explicit WithThreads on a batch
// request stays a hard ceiling — the arbiter's grant may be smaller but
// never larger.
func TestBatchRespectsThreadCeiling(t *testing.T) {
	lp, l := tcOperands(9, 8, 114) // big enough to ask for several workers
	s := NewSession(WithThreads(4))
	res := s.MultiplyBatch(context.Background(), []BatchReq{
		{M: lp, A: l, B: l, Opts: []Op{WithAccumulate(PlusPair()), WithThreads(1)}},
	})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].Workers > 1 {
		t.Fatalf("request capped at 1 thread ran with %d workers", res[0].Workers)
	}
}

// TestBatchCustomSemiringsNotCoalesced: two different user-built semirings
// that both forgot to set Name must still be told apart by the coalescing
// key (function identity), or one request would receive the other's
// numbers.
func TestBatchCustomSemiringsNotCoalesced(t *testing.T) {
	g := ErdosRenyi(128, 4, 112)
	plus := Semiring{Add: func(a, b float64) float64 { return a + b }, Mul: func(a, b float64) float64 { return a * b }}
	max := Semiring{Add: func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}, Mul: func(a, b float64) float64 { return a * b }}
	s := NewSession(WithThreads(2))
	res := s.MultiplyBatch(context.Background(), []BatchReq{
		{M: g.Pattern(), A: g, B: g, Opts: []Op{WithAccumulate(plus)}},
		{M: g.Pattern(), A: g, B: g, Opts: []Op{WithAccumulate(max)}},
	})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("custom-semiring batch errored: %v %v", res[0].Err, res[1].Err)
	}
	if res[0].Coalesced || res[1].Coalesced {
		t.Fatal("distinct unnamed semirings were coalesced")
	}
	if Sum(res[0].C) == Sum(res[1].C) {
		t.Fatal("test premise broken: the two semirings should produce different sums")
	}
}

// TestBatchNilOperand: a nil operand yields a per-request error, not a
// panic, and does not poison the rest of the batch.
func TestBatchNilOperand(t *testing.T) {
	lp, l := tcOperands(6, 4, 106)
	s := NewSession()
	res := s.MultiplyBatch(context.Background(), []BatchReq{
		{M: nil, A: l, B: l},
		{M: lp, A: l, B: l},
	})
	if res[0].Err == nil {
		t.Fatal("nil mask must error")
	}
	if res[1].Err != nil {
		t.Fatalf("healthy request poisoned: %v", res[1].Err)
	}
}

// TestBatchCancelled: a cancelled context fails every request with the
// context error.
func TestBatchCancelled(t *testing.T) {
	lp, l := tcOperands(7, 4, 107)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession()
	res := s.MultiplyBatch(ctx, []BatchReq{{M: lp, A: l, B: l}, {M: lp, A: l, B: l}})
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("request %d: err %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestCoalescedFollowerRetriesAfterLeaderCancel: a leader cancelled by its
// own context must not poison healthy followers — a follower that finds a
// context error on the shared flight retries and computes the product
// itself.
func TestCoalescedFollowerRetriesAfterLeaderCancel(t *testing.T) {
	lp, l := tcOperands(6, 4, 115)
	s := NewSession(WithThreads(1))
	d := s.def.apply([]Op{WithAccumulate(PlusPair())})
	key := reqKey(d, lp, l, l)
	// Install a fake in-flight leader for the key.
	fc := &flightCall{done: make(chan struct{})}
	s.flightMu.Lock()
	s.flight[key] = fc
	s.flightMu.Unlock()
	resC := make(chan BatchRes, 1)
	go func() { resC <- s.doOne(context.Background(), d, lp, l, l, true) }()
	time.Sleep(10 * time.Millisecond) // let the follower join the flight
	// The leader "was cancelled": unlink, publish the context error, wake.
	fc.err = context.Canceled
	s.flightMu.Lock()
	delete(s.flight, key)
	s.flightMu.Unlock()
	close(fc.done)
	r := <-resC
	if r.Err != nil {
		t.Fatalf("healthy follower inherited the leader's cancellation: %v", r.Err)
	}
	want, err := s.Multiply(context.Background(), lp, l, l, WithAccumulate(PlusPair()))
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "retried follower", r.C, want)
}

// TestServingStress is the -race serving smoke: many goroutines drive mixed
// workloads — single multiplies, batches with duplicates, concurrent
// admission-or-refuse requests and an iterative application — through ONE
// session concurrently, and
// every result must be bit-identical to the sequential reference. Run with
// -race in CI.
func TestServingStress(t *testing.T) {
	ctx := context.Background()
	lp1, l1 := tcOperands(7, 4, 109)
	lp2, l2 := tcOperands(8, 8, 110)
	g := ErdosRenyi(256, 8, 111)

	ref := NewSession(WithThreads(1))
	wantTC1, err := ref.Multiply(ctx, lp1, l1, l1, WithAccumulate(PlusPair()))
	if err != nil {
		t.Fatal(err)
	}
	wantTC2, err := ref.Multiply(ctx, lp2, l2, l2, WithAccumulate(PlusPair()))
	if err != nil {
		t.Fatal(err)
	}
	wantSq, err := ref.Multiply(ctx, g.Pattern(), g, g)
	if err != nil {
		t.Fatal(err)
	}
	wantComp, err := ref.Multiply(ctx, g.Pattern(), g, g, WithComplement())
	if err != nil {
		t.Fatal(err)
	}
	wantTri, err := ref.TriangleCount(ctx, l1)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession(WithThreads(4), WithInflight(4))
	var wg sync.WaitGroup
	workers := 8
	iters := 4
	if testing.Short() {
		workers, iters = 4, 2
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch (w + i) % 4 {
				case 0: // plain concurrent multiplies
					got, err := s.Multiply(ctx, lp1, l1, l1, WithAccumulate(PlusPair()))
					if err != nil {
						t.Errorf("multiply: %v", err)
						return
					}
					sameCSR(t, "stress multiply", got, wantTC1)
				case 1: // batch with duplicates and mixed modes
					res := s.MultiplyBatch(ctx, []BatchReq{
						{M: lp2, A: l2, B: l2, Opts: []Op{WithAccumulate(PlusPair())}},
						{M: g.Pattern(), A: g, B: g},
						{M: g.Pattern(), A: g, B: g},
						{M: g.Pattern(), A: g, B: g, Opts: []Op{WithComplement()}},
					})
					for j, r := range res {
						if r.Err != nil {
							t.Errorf("batch req %d: %v", j, r.Err)
							return
						}
					}
					sameCSR(t, "stress batch tc", res[0].C, wantTC2)
					sameCSR(t, "stress batch sq", res[1].C, wantSq)
					sameCSR(t, "stress batch dup", res[2].C, wantSq)
					sameCSR(t, "stress batch comp", res[3].C, wantComp)
				case 2: // concurrent single requests, refused at the admission cap
					var tw sync.WaitGroup
					for j := 0; j < 4; j++ {
						tw.Add(1)
						go func() {
							defer tw.Done()
							r := s.TryMultiply(ctx, lp1, l1, l1, WithAccumulate(PlusPair()))
							if errors.Is(r.Err, ErrSaturated) {
								return
							}
							if r.Err != nil {
								t.Errorf("try multiply: %v", r.Err)
								return
							}
							sameCSR(t, "stress try multiply", r.C, wantTC1)
						}()
					}
					tw.Wait()
				case 3: // an application sharing the same session
					res, err := s.TriangleCount(ctx, l1)
					if err != nil {
						t.Errorf("triangles: %v", err)
						return
					}
					if res.Triangles != wantTri.Triangles {
						t.Errorf("triangles %d, want %d", res.Triangles, wantTri.Triangles)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats().Arbiter
	if st.Inflight != 0 || st.Waiting != 0 || st.Free != st.Budget {
		t.Fatalf("arbiter did not drain after stress: %+v", st)
	}
	cs := s.Stats().Cache
	if cs.Hits == 0 {
		t.Error("stress run never hit the plan cache")
	}
}

// TestBatchNamedSemiringsCoalesce: named semirings coalesce by their
// comparable operator type, not func-pointer identity — two requests whose
// semirings were constructed independently (as two serving clients would)
// must share one computation, and the executed plan must report the
// inlined operator path.
func TestBatchNamedSemiringsCoalesce(t *testing.T) {
	lp, l := tcOperands(8, 4, 117)
	sr1 := PlusPair() // independently constructed values of the same
	sr2 := PlusPair() // named semiring: equal Ops type, no shared funcs
	s := NewSession(WithThreads(2))
	res := s.MultiplyBatch(context.Background(), []BatchReq{
		{M: lp, A: l, B: l, Opts: []Op{WithAccumulate(sr1)}},
		{M: lp, A: l, B: l, Opts: []Op{WithAccumulate(sr2)}},
	})
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("named-semiring batch errored: %v %v", res[0].Err, res[1].Err)
	}
	if !res[0].Coalesced && !res[1].Coalesced {
		t.Fatal("independently constructed named semirings did not coalesce")
	}
	if res[0].C != res[1].C {
		t.Fatal("coalesced requests received distinct result objects")
	}
	// The session's plan must be labeled with the inlined operator path,
	// and a custom semiring's with the funcptr fallback.
	if p := s.Explain(lp, l, l, WithAccumulate(sr1)); p.Ops != core.OpsInlined {
		t.Fatalf("named semiring plan reports ops=%q, want %q", p.Ops, core.OpsInlined)
	}
	custom := Semiring{Add: func(a, b float64) float64 { return a + b },
		Mul: func(a, b float64) float64 { return a * b }}
	if p := s.Explain(lp, l, l, WithAccumulate(custom)); p.Ops != core.OpsFuncPtr {
		t.Fatalf("custom semiring plan reports ops=%q, want %q", p.Ops, core.OpsFuncPtr)
	}
	if !strings.Contains(s.Explain(lp, l, l, WithAccumulate(sr1)).Explain(), "ops=inlined") {
		t.Fatal("Explain output does not render the ops= label")
	}
}

// TestTryMultiplySaturation exercises the non-queuing admission path: a
// full admission cap refuses with ErrSaturated instead of queuing, an
// identical in-flight request coalesces and succeeds despite saturation,
// and a freed slot admits again.
func TestTryMultiplySaturation(t *testing.T) {
	s := NewSession(WithThreads(2), WithInflight(1))
	ctx := context.Background()
	g := ErdosRenyi(64, 8, 3)
	other := ErdosRenyi(64, 8, 4)
	// Coalescing keys on operand identity: share one Pattern view, since
	// every g.Pattern() call builds a distinct header.
	gp, otherp := g.Pattern(), other.Pattern()

	// A slow custom semiring gates the leader mid-multiply so saturation
	// is a state we control, not a race we hope to win.
	gate := make(chan struct{})
	var once atomic.Bool
	slow := Semiring{
		Name: "slow-test",
		Zero: 0,
		Add:  func(a, b float64) float64 { return a + b },
		Mul: func(a, b float64) float64 {
			if once.CompareAndSwap(false, true) {
				<-gate
			}
			return a * b
		},
	}

	leaderDone := make(chan BatchRes, 1)
	go func() {
		res := s.MultiplyBatch(ctx, []BatchReq{{M: gp, A: g, B: g,
			Opts: []Op{WithAccumulate(slow)}}})
		leaderDone <- res[0]
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Arbiter.Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached in-flight state")
		}
		time.Sleep(time.Millisecond)
	}

	// Distinct request against a saturated cap: refused, not queued.
	if r := s.TryMultiply(ctx, otherp, other, other); !errors.Is(r.Err, ErrSaturated) {
		t.Fatalf("distinct request under saturation: err %v, want ErrSaturated", r.Err)
	}
	if st := s.Stats().Arbiter; st.Rejected == 0 {
		t.Fatalf("rejection not counted: %+v", st)
	}

	// Identical request: coalesces onto the leader, no slot needed.
	followerDone := make(chan BatchRes, 1)
	go func() {
		followerDone <- s.TryMultiply(ctx, gp, g, g, WithAccumulate(slow))
	}()
	select {
	case r := <-followerDone:
		t.Fatalf("follower finished before the leader: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	leader := <-leaderDone
	follower := <-followerDone
	if leader.Err != nil || follower.Err != nil {
		t.Fatalf("leader err %v, follower err %v", leader.Err, follower.Err)
	}
	if !follower.Coalesced {
		t.Fatal("identical request under saturation did not coalesce")
	}
	if follower.C != leader.C {
		t.Fatal("coalesced follower received a different result object")
	}

	// Cap free again: a fresh distinct request is admitted.
	if r := s.TryMultiply(ctx, otherp, other, other); r.Err != nil {
		t.Fatalf("request after release: %v", r.Err)
	}
}
