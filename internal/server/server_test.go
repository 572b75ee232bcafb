package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/wire"
	"repro/masked"
)

// startLocal boots an ephemeral server and registers its drain on cleanup.
func startLocal(t *testing.T, cfg Config) (*Local, *Client) {
	t.Helper()
	l, err := StartLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := l.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return l, NewClient(l.URL, nil)
}

// TestMultiplyRoundTrip drives a multiply through the full network path
// and checks the result is bit-identical to the in-process computation,
// for the default semiring, a named semiring, and the complemented mask.
func TestMultiplyRoundTrip(t *testing.T) {
	l, c := startLocal(t, Config{Threads: 2})
	ctx := context.Background()
	g := masked.ErdosRenyi(256, 8, 11)
	gp := g.Pattern()
	ref := masked.NewSession(masked.WithThreads(2))

	cases := []struct {
		name string
		req  *wire.MultiplyReq
		opts []masked.Op
	}{
		{"arithmetic", &wire.MultiplyReq{M: gp, A: g, B: g}, nil},
		{"plus-pair", &wire.MultiplyReq{Semiring: "plus-pair", M: gp, A: g, B: g},
			[]masked.Op{masked.WithAccumulate(masked.PlusPair())}},
		{"complement", &wire.MultiplyReq{Flags: wire.FlagComplement, M: gp, A: g, B: g},
			[]masked.Op{masked.WithComplement()}},
	}
	for _, tc := range cases {
		res, err := c.Multiply(ctx, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := ref.Multiply(ctx, gp, g, g, tc.opts...)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		if !matrix.Equal(res.C, want, func(a, b float64) bool { return a == b }) {
			t.Fatalf("%s: wire result differs from in-process result", tc.name)
		}
	}
	if m := l.Server.Metrics(); m.MultiplyRequests != int64(len(cases)) {
		t.Fatalf("multiply counter %d, want %d", m.MultiplyRequests, len(cases))
	}
}

// TestMultiplyBatch checks batch bodies answer per-frame in order, with
// errors inline as error frames.
func TestMultiplyBatch(t *testing.T) {
	_, c := startLocal(t, Config{Threads: 2})
	ctx := context.Background()
	g := masked.ErdosRenyi(128, 6, 3)
	h := masked.ErdosRenyi(96, 6, 4)
	gp, hp := g.Pattern(), h.Pattern()

	out, err := c.MultiplyBatch(ctx, []*wire.MultiplyReq{
		{M: gp, A: g, B: g},
		{Semiring: "nope", M: hp, A: h, B: h},
		{M: hp, A: h, B: h},
	})
	// The unknown semiring fails the whole batch at validation (400) —
	// decode errors are request-scoped, not frame-scoped.
	if err == nil {
		t.Fatal("unknown semiring in batch: no error")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("unknown semiring: %v, want StatusError 400", err)
	}

	out, err = c.MultiplyBatch(ctx, []*wire.MultiplyReq{
		{M: gp, A: g, B: g},
		{M: hp, A: h, B: h},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := masked.NewSession(masked.WithThreads(2))
	for i, operand := range []*masked.Matrix{g, h} {
		if out[i].Err != nil {
			t.Fatalf("frame %d: %v", i, out[i].Err)
		}
		want, _ := ref.Multiply(ctx, operand.Pattern(), operand, operand)
		if !matrix.Equal(out[i].Res.C, want, func(a, b float64) bool { return a == b }) {
			t.Fatalf("frame %d: result differs", i)
		}
	}
}

// TestInternRestoresIdentity checks that repeating the same operand bytes
// hits the intern table and, through restored identity, the plan cache.
func TestInternRestoresIdentity(t *testing.T) {
	l, c := startLocal(t, Config{Threads: 2})
	ctx := context.Background()
	g := masked.ErdosRenyi(128, 6, 9)
	req := &wire.MultiplyReq{M: g.Pattern(), A: g, B: g}
	for i := 0; i < 3; i++ {
		if _, err := c.Multiply(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	m := l.Server.Metrics()
	// The first request interns the mask and the matrix (A and B carry the
	// same bytes, so B hits A's fresh entry); the next two hit all three.
	if m.InternMisses != 2 || m.InternHits != 7 {
		t.Fatalf("intern hits/misses %d/%d, want 7/2", m.InternHits, m.InternMisses)
	}
	if m.Session.Cache.Hits < 2 {
		t.Fatalf("plan cache hits %d: interned operands should reuse plans", m.Session.Cache.Hits)
	}
}

// TestValidationRejects checks malformed bodies and invalid operands get
// 400s, and oversized bodies 413 — never a panic or a kernel crash.
func TestValidationRejects(t *testing.T) {
	_, c := startLocal(t, Config{Threads: 1, MaxBodyBytes: 1 << 20})
	ctx := context.Background()

	garbage := func(body []byte) *StatusError {
		t.Helper()
		_, err := c.post(ctx, "/v1/multiply", body)
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("want StatusError, got %v", err)
		}
		return se
	}
	if se := garbage([]byte("not a frame")); se.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", se.Code)
	}
	if se := garbage(nil); se.Code != http.StatusBadRequest {
		t.Fatalf("empty body: %d, want 400", se.Code)
	}
	if se := garbage(make([]byte, 2<<20)); se.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", se.Code)
	}

	// Structurally valid frame, semantically broken CSR: out-of-range
	// column index.
	g := masked.ErdosRenyi(32, 4, 5)
	bad := &matrix.CSR[float64]{NRows: g.NRows, NCols: g.NCols,
		RowPtr: append([]matrix.Index(nil), g.RowPtr...),
		Col:    append([]matrix.Index(nil), g.Col...),
		Val:    append([]float64(nil), g.Val...)}
	bad.Col[0] = 1000
	_, err := c.Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: bad, B: g})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("invalid CSR: %v, want StatusError 400", err)
	}
}

// TestSaturationReturns429 fills the admission cap and checks the server
// refuses with 429 + Retry-After rather than queuing, recovering once the
// slot frees.
func TestSaturationReturns429(t *testing.T) {
	l, c := startLocal(t, Config{Threads: 1, Inflight: 1})
	ctx := context.Background()
	g := masked.ErdosRenyi(64, 4, 2)

	// Occupy the only admission slot from the session side.
	adm, ok := l.Server.Session().TryAdmit(1)
	if !ok {
		t.Fatal("could not occupy the admission slot")
	}
	_, err := c.Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: g, B: g})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated multiply: %v, want ErrSaturated", err)
	}
	if _, err := c.TriangleCount(ctx, &wire.TriangleCountReq{G: g}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("saturated triangle count: %v, want ErrSaturated", err)
	}
	if m := l.Server.Metrics(); m.Rejected < 2 {
		t.Fatalf("rejected counter %d, want >= 2", m.Rejected)
	}

	adm.Release()
	if _, err := c.Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: g, B: g}); err != nil {
		t.Fatalf("multiply after release: %v", err)
	}
}

// TestAppEndpoints checks /v1/triangle-count and /v1/bfs agree with the
// in-process applications.
func TestAppEndpoints(t *testing.T) {
	_, c := startLocal(t, Config{Threads: 2})
	ctx := context.Background()
	g := masked.ErdosRenyi(256, 8, 21)
	ref := masked.NewSession(masked.WithThreads(2))

	tc, err := c.TriangleCount(ctx, &wire.TriangleCountReq{G: g})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.TriangleCount(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Triangles != want.Triangles {
		t.Fatalf("triangles %d, want %d", tc.Triangles, want.Triangles)
	}
	// The response carries flops(L·L) of the relabeled graph, whichever
	// path counted.
	if l := matrix.RelabelTril(g, 1); tc.Flops != masked.Flops(l, l) || tc.Flops != want.Flops {
		t.Fatalf("flops %d, in-process %d, want flops(L·L) = %d", tc.Flops, want.Flops, masked.Flops(l, l))
	}

	bfs, err := c.BFS(ctx, &wire.BFSReq{Source: 0, G: g})
	if err != nil {
		t.Fatal(err)
	}
	wantBFS, err := ref.BFS(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bfs.Level) != len(wantBFS.Level) {
		t.Fatalf("level length %d, want %d", len(bfs.Level), len(wantBFS.Level))
	}
	for i := range bfs.Level {
		if bfs.Level[i] != wantBFS.Level[i] {
			t.Fatalf("level[%d] = %d, want %d", i, bfs.Level[i], wantBFS.Level[i])
		}
	}

	// Out-of-range source: 400.
	_, err = c.BFS(ctx, &wire.BFSReq{Source: 9999, G: g})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range source: %v, want StatusError 400", err)
	}
}

// TestMetricsEndpoints checks both exposition formats: the Prometheus
// text carries the metric families, the JSON snapshot parses and its
// counters move monotonically under traffic.
func TestMetricsEndpoints(t *testing.T) {
	_, c := startLocal(t, Config{Threads: 1})
	ctx := context.Background()
	before, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g := masked.ErdosRenyi(64, 4, 6)
	if _, err := c.Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: g, B: g}); err != nil {
		t.Fatal(err)
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.MultiplyRequests != before.MultiplyRequests+1 {
		t.Fatalf("multiply counter %d -> %d, want +1", before.MultiplyRequests, after.MultiplyRequests)
	}
	if after.BytesIn <= before.BytesIn || after.BytesOut <= before.BytesOut {
		t.Fatalf("byte counters did not move: %+v -> %+v", before, after)
	}
	if after.Session.Arbiter.Admitted <= before.Session.Arbiter.Admitted {
		t.Fatal("session arbiter counters did not move")
	}

	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mspgemm_requests_total{endpoint=\"multiply\"}",
		"mspgemm_plan_cache_total{event=\"hit\"}",
		"mspgemm_arbiter_admitted_total",
		"mspgemm_driver_pool_gets_total",
		"# TYPE mspgemm_uptime_seconds gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPlanReuseMetrics: after warm-up, repeated Inner-planned requests
// through a live server read B's transpose from the cached plan and skip
// the sortedness re-check of the interned M and A; no transpose is built
// after the first hit. Both /metrics forms carry the counters.
func TestPlanReuseMetrics(t *testing.T) {
	_, c := startLocal(t, Config{Threads: 2})
	ctx := context.Background()
	req := innerCornerReq(64, 7)
	ref, err := masked.NewSession().Multiply(ctx, req.M, req.A, req.B,
		masked.WithVariant(masked.Variant{Alg: masked.MSA, Phase: masked.OnePhase}))
	if err != nil {
		t.Fatal(err)
	}
	want := (&wire.MultiplyRes{C: ref}).Encode(nil)
	multiply := func() {
		t.Helper()
		res, err := c.Multiply(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal((&wire.MultiplyRes{C: res.C}).Encode(nil), want) {
			t.Fatal("product differs from the in-process reference")
		}
	}
	// Warm-up: a plan cache miss, a hit that re-checks and builds, and a
	// hit that reuses both.
	for i := 0; i < 3; i++ {
		multiply()
	}
	before, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	const repeats = 5
	for i := 0; i < repeats; i++ {
		multiply()
	}
	after, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, a := before.Session.Cache, after.Session.Cache
	if b.TransposeBuilds != 1 || a.TransposeBuilds != b.TransposeBuilds {
		t.Fatalf("transposes built: %d after warm-up, %d after repeats; want 1 and flat", b.TransposeBuilds, a.TransposeBuilds)
	}
	if a.TransposeReuses != b.TransposeReuses+repeats {
		t.Fatalf("transposes reused %d -> %d, want +%d", b.TransposeReuses, a.TransposeReuses, repeats)
	}
	if a.RetainedBytes == 0 {
		t.Fatal("a hot Inner product retained no bytes")
	}
	if a.SortRechecksSkipped != b.SortRechecksSkipped+repeats || a.SortRechecks != b.SortRechecks {
		t.Fatalf("re-checks skipped %d -> %d (want +%d), run %d -> %d (want flat)",
			b.SortRechecksSkipped, a.SortRechecksSkipped, repeats, b.SortRechecks, a.SortRechecks)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("mspgemm_plan_transpose_total{event=\"built\"} %d\n", a.TransposeBuilds),
		fmt.Sprintf("mspgemm_plan_transpose_total{event=\"reused\"} %d\n", a.TransposeReuses),
		fmt.Sprintf("mspgemm_plan_sort_recheck_total{event=\"run\"} %d\n", a.SortRechecks),
		fmt.Sprintf("mspgemm_plan_sort_recheck_total{event=\"skipped\"} %d\n", a.SortRechecksSkipped),
		"# HELP mspgemm_plan_transpose_total ",
		"# HELP mspgemm_plan_sort_recheck_total ",
		fmt.Sprintf("mspgemm_plan_retained_bytes %d\n", a.RetainedBytes),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
}

// TestTriangleCountReusesOperand: repeated /v1/triangle-count requests
// on one graph count on the operand the session keeps for the interned
// graph: the first request marks the graph counted, the second builds the
// count operand and keeps it, and every later request reuses it. No plan
// is made, and both /metrics forms carry the counters.
func TestTriangleCountReusesOperand(t *testing.T) {
	_, c := startLocal(t, Config{Threads: 2})
	ctx := context.Background()
	g := masked.RMAT(9, 8, 23)
	want, err := masked.NewSession(masked.WithThreads(2)).TriangleCount(ctx, g, masked.WithVariant(masked.Variant{Alg: masked.MSA, Phase: masked.OnePhase}))
	if err != nil {
		t.Fatal(err)
	}
	count := func() {
		t.Helper()
		tc, err := c.TriangleCount(ctx, &wire.TriangleCountReq{G: g})
		if err != nil {
			t.Fatal(err)
		}
		if tc.Triangles != want.Triangles || tc.Flops != want.Flops {
			t.Fatalf("triangles %d and flops %d, want %d and %d", tc.Triangles, tc.Flops, want.Triangles, want.Flops)
		}
	}
	cache := func() masked.CacheStats {
		t.Helper()
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return m.Session.Cache
	}
	count()
	count()
	b := cache()
	if b.CountOperandBuilds != 1 || b.CountOperandReuses != 0 || b.RetainedBytes == 0 {
		t.Fatalf("two requests: %d count operands built, %d reused, %d bytes retained; want 1, 0 and some",
			b.CountOperandBuilds, b.CountOperandReuses, b.RetainedBytes)
	}
	const repeats = 4
	for i := 0; i < repeats; i++ {
		count()
	}
	a := cache()
	if a.CountOperandBuilds != b.CountOperandBuilds || a.CountOperandReuses != b.CountOperandReuses+repeats {
		t.Fatalf("repeats: built %d -> %d (want flat), reused %d -> %d (want +%d)",
			b.CountOperandBuilds, a.CountOperandBuilds, b.CountOperandReuses, a.CountOperandReuses, repeats)
	}
	if a.Entries != 0 || a.Hits != 0 || a.Misses != 0 {
		t.Fatalf("triangle counts touched the plans: %+v", a)
	}
	text, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP mspgemm_count_operand_total ",
		fmt.Sprintf("mspgemm_count_operand_total{event=\"built\"} %d\n", a.CountOperandBuilds),
		fmt.Sprintf("mspgemm_count_operand_total{event=\"reused\"} %d\n", a.CountOperandReuses),
		fmt.Sprintf("mspgemm_plan_retained_bytes %d\n", a.RetainedBytes),
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text)
		}
	}
}

// TestEvictedOperandReleasesTranspose: the transpose a hot Inner product
// keeps dies with its operands. Once the intern table evicts them and no
// request still uses them, a collection releases it, although the plan
// cache entry is still resident: the server's operand heap follows the
// intern table alone.
func TestEvictedOperandReleasesTranspose(t *testing.T) {
	_, c := startLocal(t, Config{Threads: 2, InternCapacity: 3})
	ctx := context.Background()
	multiply := func(req *wire.MultiplyReq) {
		t.Helper()
		if _, err := c.Multiply(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	metrics := func() *MetricsSnapshot {
		t.Helper()
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for i := 0; i < 3; i++ {
		multiply(innerCornerReq(64, 7))
	}
	if m := metrics(); m.Session.Cache.TransposeBuilds != 1 || m.Session.Cache.RetainedBytes == 0 {
		t.Fatalf("hot Inner product: %d transposes built, %d bytes retained; want 1 and some",
			m.Session.Cache.TransposeBuilds, m.Session.Cache.RetainedBytes)
	}
	// Three other operands evict the hot product's three.
	multiply(innerCornerReq(64, 17))
	if m := metrics(); m.InternEvictions < 3 || m.Session.Cache.Entries < 2 {
		t.Fatalf("%d intern evictions, %d plans resident; want the hot operands evicted and both plans resident",
			m.InternEvictions, m.Session.Cache.Entries)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		if metrics().Session.Cache.RetainedBytes == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("an evicted operand's transpose is still retained (%d bytes)", metrics().Session.Cache.RetainedBytes)
		}
	}
}

// TestPlanReuseInternOff: with interning off, operands still reach the
// session as copies. Decoded operands are views of a pooled body buffer,
// so a B2 with B1's shape and nnz, sent after B1 is hot, would otherwise
// sit at B1's addresses, hit B1's plan-cache entry and take B1's
// transpose. Every product must match the in-process one byte for byte.
func TestPlanReuseInternOff(t *testing.T) {
	_, c := startLocal(t, Config{Threads: 2, InternCapacity: -1})
	ctx := context.Background()
	req1 := innerCornerReq(64, 7)
	req2 := &wire.MultiplyReq{M: req1.M, A: req1.A, B: req1.B.Clone()}
	for i := range req2.B.Val {
		req2.B.Val[i] = 2*req2.B.Val[i] + 1
	}
	ref := masked.NewSession()
	check := func(req *wire.MultiplyReq) {
		t.Helper()
		want, err := ref.Multiply(ctx, req.M, req.A, req.B,
			masked.WithVariant(masked.Variant{Alg: masked.MSA, Phase: masked.OnePhase}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Multiply(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal((&wire.MultiplyRes{C: res.C}).Encode(nil), (&wire.MultiplyRes{C: want}).Encode(nil)) {
			t.Fatal("product differs from the in-process reference")
		}
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			check(req1)
		}
		check(req2)
	}
}

// TestShutdownDrains closes a server with a request in flight and checks
// the request completes, the drain returns nil, and no goroutines leak.
func TestShutdownDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		l, err := StartLocal(Config{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(l.URL, nil)
		ctx := context.Background()
		g := masked.ErdosRenyi(512, 16, 8)

		inFlight := make(chan error, 1)
		go func() {
			_, err := c.Multiply(ctx, &wire.MultiplyReq{M: g.Pattern(), A: g, B: g})
			inFlight <- err
		}()
		// Let the request reach the server before shutting down.
		time.Sleep(20 * time.Millisecond)
		if err := l.Close(); err != nil {
			t.Errorf("drain: %v", err)
		}
		if err := <-inFlight; err != nil {
			t.Errorf("in-flight request during drain: %v", err)
		}
		// Drained: new connections are refused.
		if err := c.Healthz(ctx); err == nil {
			t.Error("healthz succeeded after shutdown")
		}
	}()
	// The client keeps pooled idle connections briefly; close them.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after server shutdown: %d live, started with %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineMapsTo504 checks a hopeless frame deadline cancels the
// multiply mid-flight and surfaces as 504.
func TestDeadlineMapsTo504(t *testing.T) {
	_, c := startLocal(t, Config{Threads: 1})
	ctx := context.Background()
	g := masked.ErdosRenyi(20000, 32, 13)
	_, err := c.Multiply(ctx, &wire.MultiplyReq{DeadlineMillis: 1, M: g.Pattern(), A: g, B: g})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusGatewayTimeout {
		t.Fatalf("1ms deadline on a large multiply: %v, want StatusError 504", err)
	}
}

// TestClientResponseCap checks the client's response cap holds whether a
// body declares its Content-Length or streams chunked, and that bodies
// within the cap arrive intact either way.
func TestClientResponseCap(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/sized" {
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		}
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		w.Write(body[len(body)/2:])
	}))
	defer ts.Close()
	ctx := context.Background()
	for _, path := range []string{"/sized", "/chunked"} {
		c := NewClient(ts.URL, ts.Client(), WithMaxResponseBytes(int64(len(body))))
		got, err := c.get(ctx, path)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s at the cap: %d bytes, err %v; want the %d-byte body", path, len(got), err, len(body))
		}
		c = NewClient(ts.URL, ts.Client(), WithMaxResponseBytes(int64(len(body))-1))
		_, err = c.get(ctx, path)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusInsufficientStorage {
			t.Fatalf("%s over the cap: %v, want StatusError 507", path, err)
		}
	}
}

// allocatedBytes reports the heap bytes allocated while f runs.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadBodyIgnoresDeclaredLength pins that the server's body buffer
// grows with the bytes received, not with the Content-Length header: a
// client declaring a large body and sending a few bytes must not make the
// server reserve the declared size.
func TestReadBodyIgnoresDeclaredLength(t *testing.T) {
	sv := New(Config{Threads: 1})
	const declared = 64 << 20
	r := httptest.NewRequest(http.MethodPost, "/v1/multiply", strings.NewReader("MSPW"))
	r.ContentLength = declared
	var got []byte
	n := allocatedBytes(func() {
		body, release, ok := sv.readBody(httptest.NewRecorder(), r)
		if !ok {
			t.Fatal("readBody rejected a 4-byte body")
		}
		got = bytes.Clone(body)
		release()
	})
	if string(got) != "MSPW" {
		t.Fatalf("body %q, want %q", got, "MSPW")
	}
	if n > 1<<20 {
		t.Fatalf("reading a 4-byte body declared as %d bytes allocated %d bytes", declared, n)
	}
}

// TestClientResponsePresizeCapped pins that a response's Content-Length
// reserves at most maxResponsePresize before its bytes arrive.
func TestClientResponsePresizeCapped(t *testing.T) {
	c := NewClient("http://127.0.0.1:0", nil)
	const declared = 64 << 20
	resp := &http.Response{ContentLength: declared, Body: io.NopCloser(strings.NewReader("abc"))}
	var got []byte
	var err error
	n := allocatedBytes(func() { got, err = c.readCapped(resp) })
	if err != nil || string(got) != "abc" {
		t.Fatalf("readCapped = %q, %v; want %q", got, err, "abc")
	}
	// bytes.Buffer's growth copies once more under -race, so allow a few
	// presizes; reserving the declared size would take 64 MiB.
	if n > 4*maxResponsePresize {
		t.Fatalf("reading a 3-byte response declared as %d bytes allocated %d bytes", declared, n)
	}
}
