package server

// The chaos suite: every injected fault class runs against a live
// in-process server driven by the retrying client, and every surviving
// response must be bit-identical to an unfaulted session's. Faults are
// armed with limit:N schedules, so recovery is guaranteed, not
// probabilistic. The real-binary variant (MSPGEMM_FAULTS through the smoke
// client) runs in CI's chaos job; these tests cover the same classes
// in-process where they can also assert on internals (arbiter budget,
// panic counters, retry stats).

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/wire"
	"repro/masked"
)

// retryClient is a client with a fast, bounded retry policy: enough
// attempts to outlast every limit:N fault schedule below, with MaxDelay
// clamping the server's 1s Retry-After so saturation tests stay quick.
func retryClient(url string) *Client {
	return NewClient(url, nil, WithRetry(RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
	}))
}

// arm installs a fault registry from spec and uninstalls it on cleanup.
func arm(t *testing.T, spec string) {
	t.Helper()
	r, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(r)
	t.Cleanup(func() { faultinject.Set(nil) })
}

// checkHealthy asserts the server is still serving and has leaked neither
// admission slots nor worker budget.
func checkHealthy(t *testing.T, l *Local, c *Client) {
	t.Helper()
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("server unhealthy after fault: %v", err)
	}
	if st := l.Server.Session().Stats().Arbiter; st.Inflight != 0 || st.Free != st.Budget {
		t.Fatalf("arbiter leaked after fault: %+v", st)
	}
}

// TestChaosFaultClasses drives one multiply per fault class through the
// retrying client and requires bit-identical recovery from each.
func TestChaosFaultClasses(t *testing.T) {
	ctx := context.Background()
	g := masked.ErdosRenyi(256, 8, 31)
	gp := g.Pattern()
	want, err := masked.NewSession(masked.WithThreads(2)).Multiply(ctx, gp, g, g)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		spec string
	}{
		// The handler barrier converts the panic to a 500; the client
		// retries it (multiplies are pure).
		{"handler-panic", "server.handler.panic=every:1,limit:1"},
		// The session's request-boundary recover converts a kernel panic to
		// an error response without leaking the arbiter grant.
		{"kernel-panic", "masked.kernel.panic=every:1,limit:1"},
		// The client's first request body is truncated in flight; the
		// server's frame decoder answers 400 and the retry re-encodes.
		{"request-truncated", "wire.truncate=every:1,limit:1"},
		// Evaluation 2 of the bitflip point is the server's response encode:
		// the client's CRC32-C verification catches it and retries.
		{"response-bitflip", "wire.bitflip=every:2,limit:1"},
		// Latency faults must not change outcomes, only timing.
		{"slow-handler", "server.handler.slow=every:1,limit:2,delay:30ms"},
		{"arbiter-stall", "masked.arbiter.stall=every:1,limit:2,delay:30ms"},
		// A forced intern miss takes the revalidate-and-copy path for a
		// known operand — same canonical operand, same result.
		{"intern-miss", "server.intern.miss=every:1,limit:4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, _ := startLocal(t, Config{Threads: 2})
			c := retryClient(l.URL)
			arm(t, tc.spec)
			// Two identical requests: the second exercises the intern-hit
			// path (or, under intern-miss, the forced cold path again).
			for i := 0; i < 2; i++ {
				res, err := c.Multiply(ctx, &wire.MultiplyReq{M: gp, A: g, B: g})
				if err != nil {
					t.Fatalf("request %d under %s: %v", i, tc.spec, err)
				}
				if !matrix.Equal(res.C, want, func(a, b float64) bool { return a == b }) {
					t.Fatalf("request %d under %s: result differs from unfaulted run", i, tc.spec)
				}
			}
			faultinject.Set(nil)
			checkHealthy(t, l, c)
		})
	}
}

// TestChaosBitFlipOneRetry pins the acceptance criterion precisely: a
// bit-flipped request frame is detected by CRC32-C on the server, answered
// 400, and recovered by exactly one client retry.
func TestChaosBitFlipOneRetry(t *testing.T) {
	ctx := context.Background()
	l, _ := startLocal(t, Config{Threads: 2})
	c := retryClient(l.URL)
	g := masked.ErdosRenyi(128, 6, 32)
	want, err := masked.NewSession(masked.WithThreads(2)).Multiply(ctx, g.Pattern(), g, g)
	if err != nil {
		t.Fatal(err)
	}

	// Evaluation 1 of wire.bitflip is the client's request encode.
	arm(t, "wire.bitflip=every:1,limit:1")
	res, err := c.Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: g, B: g})
	if err != nil {
		t.Fatalf("bit-flipped request did not recover: %v", err)
	}
	if !matrix.Equal(res.C, want, func(a, b float64) bool { return a == b }) {
		t.Fatal("recovered result differs from unfaulted run")
	}
	st := c.Stats()
	if st.Attempts != 2 || st.Retries != 1 {
		t.Fatalf("stats %+v, want exactly one retry (2 attempts)", st)
	}
	if fs := faultinject.Stats(); fs[faultinject.PointWireBitflip] != 1 {
		t.Fatalf("bitflip fired %d times, want 1", fs[faultinject.PointWireBitflip])
	}
}

// TestChaosResponseChecksumCounted checks a server-side response flip is
// counted as a checksum error by the client's verifying decoder.
func TestChaosResponseChecksumCounted(t *testing.T) {
	ctx := context.Background()
	l, _ := startLocal(t, Config{Threads: 2})
	c := retryClient(l.URL)
	g := masked.ErdosRenyi(128, 6, 33)

	arm(t, "wire.bitflip=every:2,limit:1")
	if _, err := c.Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: g, B: g}); err != nil {
		t.Fatalf("response flip did not recover: %v", err)
	}
	if st := c.Stats(); st.ChecksumErrors != 1 || st.Retries != 1 {
		t.Fatalf("stats %+v, want one checksum error and one retry", st)
	}
	faultinject.Set(nil)
	checkHealthy(t, l, c)
}

// TestChaosPanicsObservable checks the two panic scopes land in /metrics:
// the handler barrier's counter, the session barrier's counter, and the
// injected-fault counters alongside them.
func TestChaosPanicsObservable(t *testing.T) {
	ctx := context.Background()
	l, _ := startLocal(t, Config{Threads: 2})
	c := retryClient(l.URL)
	g := masked.ErdosRenyi(64, 4, 34)

	// Attempt 1 panics in the handler before the session is reached, so the
	// kernel point's first evaluation is attempt 2; attempt 3 succeeds.
	arm(t, "server.handler.panic=every:1,limit:1;masked.kernel.panic=every:1,limit:1")
	if _, err := c.Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: g, B: g}); err != nil {
		t.Fatalf("multiply under panic faults: %v", err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.HandlerPanics != 1 || m.SessionPanics != 1 {
		t.Fatalf("panic counters handler=%d session=%d, want 1 and 1", m.HandlerPanics, m.SessionPanics)
	}
	if m.FaultsInjected[faultinject.PointServerPanic] != 1 || m.FaultsInjected[faultinject.PointKernelPanic] != 1 {
		t.Fatalf("fault counters %v", m.FaultsInjected)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`mspgemm_panics_total{scope="handler"} 1`,
		`mspgemm_panics_total{scope="session"} 1`,
		`mspgemm_faults_injected_total{point="server.handler.panic"} 1`,
	} {
		if !containsLine(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
	faultinject.Set(nil)
	checkHealthy(t, l, c)
}

func containsLine(text, line string) bool {
	for len(text) > 0 {
		i := 0
		for i < len(text) && text[i] != '\n' {
			i++
		}
		if text[:i] == line {
			return true
		}
		if i == len(text) {
			break
		}
		text = text[i+1:]
	}
	return false
}

// TestChaosWorkerPanicOverWire checks a panic on a parallel worker
// goroutine — the hardest class, unrecoverable without the re-panic
// machinery — costs one 500 and recovers on retry, for an operand big
// enough that the arbiter grants several workers.
func TestChaosWorkerPanicOverWire(t *testing.T) {
	ctx := context.Background()
	l, _ := startLocal(t, Config{Threads: 4})
	c := retryClient(l.URL)
	g := masked.ErdosRenyi(16384, 10, 35)

	arm(t, "parallel.worker.panic=every:1,limit:1")
	res, err := c.Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: g, B: g})
	if err != nil {
		t.Fatalf("worker panic did not recover: %v", err)
	}
	want, err := masked.NewSession(masked.WithThreads(4)).Multiply(ctx, g.Pattern(), g, g)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(res.C, want, func(a, b float64) bool { return a == b }) {
		t.Fatal("recovered result differs from unfaulted run")
	}
	if m := l.Server.Metrics(); m.SessionPanics != 1 {
		t.Fatalf("session panics %d, want 1", m.SessionPanics)
	}
	faultinject.Set(nil)
	checkHealthy(t, l, c)
}

// TestSaturationRetrySucceeds is the 429→retry→success round trip: a
// saturated server refuses with Retry-After, the slot frees while the
// client backs off, and the retry lands — no caller-visible error.
func TestSaturationRetrySucceeds(t *testing.T) {
	ctx := context.Background()
	l, _ := startLocal(t, Config{Threads: 1, Inflight: 1})
	c := retryClient(l.URL)
	g := masked.ErdosRenyi(64, 4, 36)

	// First, pin the typed refusal: a non-retrying client surfaces
	// *SaturatedError with the parsed hint.
	adm, ok := l.Server.Session().TryAdmit(1)
	if !ok {
		t.Fatal("could not occupy the admission slot")
	}
	_, err := NewClient(l.URL, nil).Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: g, B: g})
	var se *SaturatedError
	if !errors.As(err, &se) || !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated multiply: %v, want *SaturatedError", err)
	}
	if se.RetryAfter < time.Second {
		t.Fatalf("Retry-After hint %v, want >= 1s (the server's rounding floor)", se.RetryAfter)
	}

	// Now the round trip: release the slot mid-backoff.
	release := time.AfterFunc(20*time.Millisecond, adm.Release)
	defer release.Stop()
	if _, err := c.Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: g, B: g}); err != nil {
		t.Fatalf("retrying client under saturation: %v", err)
	}
	if st := c.Stats(); st.Retries < 1 {
		t.Fatalf("stats %+v, want at least one retry", st)
	}
	checkHealthy(t, l, c)
}

// TestDrainUnderBatch closes a server while a multi-frame batch is in
// flight: the batch completes, the drain returns nil, and no goroutines
// leak.
func TestDrainUnderBatch(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		l, err := StartLocal(Config{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(l.URL, nil)
		ctx := context.Background()
		g := masked.ErdosRenyi(512, 16, 37)
		h := masked.ErdosRenyi(384, 16, 38)

		// Hold the batch in the handler briefly so Close overlaps it.
		arm(t, "server.handler.slow=every:1,limit:1,delay:50ms")
		inFlight := make(chan error, 1)
		go func() {
			out, err := c.MultiplyBatch(ctx, []*wire.MultiplyReq{
				{M: g.Pattern(), A: g, B: g},
				{M: h.Pattern(), A: h, B: h},
				{M: g.Pattern(), A: g, B: g},
			})
			for _, o := range out {
				if err == nil {
					err = o.Err
				}
			}
			inFlight <- err
		}()
		time.Sleep(20 * time.Millisecond)
		if err := l.Close(); err != nil {
			t.Errorf("drain under batch: %v", err)
		}
		if err := <-inFlight; err != nil {
			t.Errorf("in-flight batch during drain: %v", err)
		}
		if st := l.Server.Session().Stats().Arbiter; st.Inflight != 0 || st.Free != st.Budget {
			t.Errorf("arbiter leaked across drain: %+v", st)
		}
	}()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after drain under batch: %d live, started with %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRetryRespectsOverallDeadline checks the retry loop gives up when the
// caller's ctx budget is spent rather than burning all attempts.
func TestRetryRespectsOverallDeadline(t *testing.T) {
	l, _ := startLocal(t, Config{Threads: 1, Inflight: 1})
	g := masked.ErdosRenyi(64, 4, 39)
	adm, ok := l.Server.Session().TryAdmit(1)
	if !ok {
		t.Fatal("could not occupy the admission slot")
	}
	defer adm.Release()

	c := NewClient(l.URL, nil, WithRetry(RetryPolicy{
		MaxAttempts: 100,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: g, B: g})
	if err == nil {
		t.Fatal("saturated multiply under a spent budget succeeded")
	}
	if !errors.Is(err, ErrSaturated) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unexpected error class: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ran %v past an 80ms budget", elapsed)
	}
	if st := c.Stats(); st.Attempts >= 100 {
		t.Fatalf("burned all %d attempts despite the deadline", st.Attempts)
	}
}
