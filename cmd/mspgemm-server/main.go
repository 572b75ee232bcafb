// Command mspgemm-server serves masked SpGEMM over HTTP with the binary
// wire protocol of internal/wire: POST /v1/multiply (single frame or a
// concatenated batch), /v1/triangle-count and /v1/bfs, plus GET /metrics
// (Prometheus text, ?format=json for JSON) and /healthz. Admission is
// backed by the session arbiter: a saturated server answers 429 with
// Retry-After instead of queuing. SIGINT/SIGTERM drain in-flight requests
// before exit.
//
//	mspgemm-server -addr :8080 -threads 8 -inflight 4
//
// Two client modes support scripts and container health checks:
//
//	mspgemm-server -smoke http://127.0.0.1:8080        # end-to-end check
//	mspgemm-server -healthcheck http://127.0.0.1:8080  # GET /healthz
//
// For chaos testing, -faults (or MSPGEMM_FAULTS) arms the deterministic
// fault-injection registry of internal/faultinject; the smoke client
// retries, so a bounded fault schedule must still produce correct answers.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/masked"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		threads     = flag.Int("threads", 0, "session worker budget (0 = GOMAXPROCS)")
		inflight    = flag.Int("inflight", 0, "admission slots (0 = engine default)")
		planCache   = flag.Int("plan-cache", 0, "plan cache capacity in plans (0 = engine default)")
		internCap   = flag.Int("intern", 0, "operand intern table entries (0 = 128, negative disables)")
		internMB    = flag.Int64("intern-max-mb", 0, "operand intern table byte bound in MiB (0 = 1024, negative = entry bound only)")
		maxBodyMB   = flag.Int64("max-body-mb", 256, "request body cap in MiB")
		maxBatch    = flag.Int("max-batch", 64, "max frames in one multiply body")
		deadline    = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		maxDeadline = flag.Duration("max-deadline", 5*time.Minute, "cap on requested deadlines")
		drain       = flag.Duration("drain", 30*time.Second, "shutdown drain timeout")
		faults      = flag.String("faults", "", "fault-injection spec, e.g. 'seed=7;server.handler.panic=0.1,limit:3' (also MSPGEMM_FAULTS; chaos testing only)")
		smoke       = flag.String("smoke", "", "run an end-to-end smoke test against this base URL and exit")
		healthcheck = flag.String("healthcheck", "", "probe this base URL's /healthz and exit")
	)
	flag.Parse()

	if spec := firstNonEmpty(*faults, os.Getenv("MSPGEMM_FAULTS")); spec != "" {
		reg, err := faultinject.Parse(spec)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
		faultinject.Set(reg)
		log.Printf("mspgemm-server: FAULT INJECTION ARMED: %s", reg.Describe())
	}

	if *healthcheck != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := server.NewClient(*healthcheck, nil).Healthz(ctx); err != nil {
			log.Fatalf("healthcheck: %v", err)
		}
		fmt.Println("ok")
		return
	}
	if *smoke != "" {
		if err := runSmoke(*smoke); err != nil {
			log.Fatalf("smoke: %v", err)
		}
		return
	}

	cfg := server.Config{
		Threads:           *threads,
		Inflight:          *inflight,
		PlanCacheCapacity: *planCache,
		InternCapacity:    *internCap,
		InternMaxBytes:    *internMB << 20,
		MaxBodyBytes:      *maxBodyMB << 20,
		MaxBatchFrames:    *maxBatch,
		DefaultDeadline:   *deadline,
		MaxDeadline:       *maxDeadline,
		DrainTimeout:      *drain,
	}
	sv := server.New(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mspgemm-server listening on http://%s", ln.Addr())
	if err := sv.Serve(ctx, ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
	log.Print("mspgemm-server: drained in-flight requests, exiting")
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

// runSmoke drives one of every request through a running server and
// verifies the answers against in-process computations — the CI server
// smoke job and a quick deployment sanity check. The client retries, so
// the smoke also passes against a server running with -faults armed (the
// CI chaos job) as long as every fault schedule is bounded.
func runSmoke(baseURL string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c := server.NewClient(baseURL, nil, server.WithRetry(server.RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
	}))

	if err := c.Healthz(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	before, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}

	g := masked.ErdosRenyi(512, 8, 1)
	gp := g.Pattern()
	ref := masked.NewSession()

	res, err := c.Multiply(ctx, &wire.MultiplyReq{M: gp, A: g, B: g})
	if err != nil {
		return fmt.Errorf("multiply: %w", err)
	}
	want, err := ref.Multiply(ctx, gp, g, g)
	if err != nil {
		return fmt.Errorf("reference multiply: %w", err)
	}
	if !matrix.Equal(res.C, want, func(a, b float64) bool { return a == b }) {
		return fmt.Errorf("multiply result differs from in-process reference")
	}

	tc, err := c.TriangleCount(ctx, &wire.TriangleCountReq{G: g})
	if err != nil {
		return fmt.Errorf("triangle count: %w", err)
	}
	wantTC, err := ref.TriangleCount(ctx, g)
	if err != nil {
		return fmt.Errorf("reference triangle count: %w", err)
	}
	if tc.Triangles != wantTC.Triangles {
		return fmt.Errorf("triangle count %d, reference %d", tc.Triangles, wantTC.Triangles)
	}

	bfs, err := c.BFS(ctx, &wire.BFSReq{Source: 0, G: g})
	if err != nil {
		return fmt.Errorf("bfs: %w", err)
	}
	if len(bfs.Level) != int(g.NRows) {
		return fmt.Errorf("bfs level length %d, want %d", len(bfs.Level), g.NRows)
	}

	after, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if after.MultiplyRequests <= before.MultiplyRequests ||
		after.TriangleCountRequests <= before.TriangleCountRequests ||
		after.BFSRequests <= before.BFSRequests {
		return fmt.Errorf("metrics counters did not advance: %+v -> %+v", before, after)
	}
	fmt.Printf("smoke ok: %d triangles, bfs depth %d, %d multiply requests served\n",
		tc.Triangles, bfs.Depth, after.MultiplyRequests)
	return nil
}
