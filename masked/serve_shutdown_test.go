package masked

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

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
			t.Fatalf("goroutine leak after serving shutdown: %d live, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeShutdownUnderLoad cancels a Serve stream mid-traffic and
// asserts the teardown contract: the response channel closes, every
// worker goroutine exits (no leaks), and responses delivered before the
// close are well-formed. The PR-2 cancellation tests cover Multiply;
// this covers Serve teardown under load.
func TestServeShutdownUnderLoad(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		s := NewSession(WithThreads(2), WithInflight(2))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		g := ErdosRenyi(256, 8, 42)
		reqs := make(chan BatchReq)
		out := s.Serve(ctx, reqs)
		var sent atomic.Int64
		go func() {
			for i := 0; ; i++ {
				select {
				case reqs <- BatchReq{M: g.Pattern(), A: g, B: g, Tag: i}:
					sent.Add(1)
				case <-ctx.Done():
					return
				}
			}
		}()
		got := 0
		for r := range out {
			if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
				t.Errorf("response %v: %v", r.Tag, r.Err)
			}
			if r.Err == nil && r.C == nil {
				t.Errorf("response %v: nil result without error", r.Tag)
			}
			got++
			if got == 5 {
				cancel()
			}
		}
		// The channel closed: every accepted request was answered or the
		// stream ended on cancellation; either way no worker remains.
		if got < 5 {
			t.Fatalf("stream closed after %d responses, before cancellation", got)
		}
	}()
	waitGoroutines(t, base, 2)
}

// TestServeCloseDrains closes the request channel (the graceful path) and
// asserts every submitted request is answered before the response channel
// closes, with no goroutines left behind.
func TestServeCloseDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	const n = 12
	func() {
		s := NewSession(WithThreads(2), WithInflight(2))
		g := ErdosRenyi(128, 6, 7)
		reqs := make(chan BatchReq, n)
		for i := 0; i < n; i++ {
			reqs <- BatchReq{M: g.Pattern(), A: g, B: g, Tag: i}
		}
		close(reqs)
		got := 0
		for r := range s.Serve(context.Background(), reqs) {
			if r.Err != nil {
				t.Errorf("response %v: %v", r.Tag, r.Err)
			}
			got++
		}
		if got != n {
			t.Fatalf("drained %d responses, want %d", got, n)
		}
	}()
	waitGoroutines(t, base, 2)
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

// TestSessionStats checks the unified snapshot agrees with the three
// components it reads and that its monotonic counters move under load.
func TestSessionStats(t *testing.T) {
	s := NewSession(WithThreads(2))
	ctx := context.Background()
	g := ErdosRenyi(128, 6, 5)
	gp := g.Pattern()
	if _, err := s.Multiply(ctx, gp, g, g); err != nil {
		t.Fatal(err)
	}
	if r := s.TryMultiply(ctx, gp, g, g); r.Err != nil {
		t.Fatal(r.Err)
	}
	st := s.Stats()
	if c := s.cache.Stats(); st.Cache != c {
		t.Fatalf("Stats.Cache %+v != plan cache %+v", st.Cache, c)
	}
	if a := s.arb.Stats(); st.Arbiter != a {
		t.Fatalf("Stats.Arbiter %+v != arbiter %+v", st.Arbiter, a)
	}
	if p := s.ws.PoolStatsSnapshot(); st.DriverPool != p {
		t.Fatalf("Stats.DriverPool %+v != workspace pools %+v", st.DriverPool, p)
	}
	if st.Cache.Hits+st.Cache.Misses == 0 {
		t.Fatal("plan cache counters did not move")
	}
	if st.Arbiter.Admitted == 0 {
		t.Fatal("arbiter admitted counter did not move")
	}
	if st.DriverPool.Gets == 0 {
		t.Fatal("driver pool counters did not move")
	}
}

// TestSemiringByName checks the wire-protocol semiring vocabulary.
func TestSemiringByName(t *testing.T) {
	for _, name := range []string{"", "arithmetic", "plus-pair", "plus-pair-f64",
		"min-plus", "plus-second", "plus-first", "max-times"} {
		if _, err := SemiringByName(name); err != nil {
			t.Errorf("%q: %v", name, err)
		}
	}
	if _, err := SemiringByName("nope"); err == nil {
		t.Error("unknown name resolved")
	}
}
