// Command mspgemm computes a masked sparse matrix product C = M .* (A·B)
// from Matrix Market files, with any of the paper's algorithm variants or
// the adaptive planner, and writes the result as Matrix Market.
//
// Usage:
//
//	mspgemm -a A.mtx -b B.mtx -mask M.mtx [-alg auto|MSA-1P..Inner-2P]
//	        [-explain] [-complement] [-semiring arithmetic|plus-pair]
//	        [-threads N] [-batch N] [-inflight K] [-timeout 30s] [-out C.mtx]
//
// Omitting -b squares A (B = A); omitting -mask uses A's pattern as the
// mask (the triangle-counting shape). -alg auto selects the variant (or a
// per-row-block mix), the mask representation kernels probe membership
// with, and the row schedule (cost-balanced equal-flops spans when the
// per-row cost profile is skewed, equal-row chunks otherwise) from the
// operands' density profile; -explain prints the plan the planner chooses
// for these operands, including the representation and schedule per block.
//
// -batch N > 1 exercises the serving layer: the product is submitted N
// times as one Session.MultiplyBatch call with an -inflight admission cap,
// and the report shows aggregate throughput plus how many requests were
// coalesced onto the first (identical requests are computed once — the
// serving layer's single-flight path).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/mmio"
	"repro/internal/planner"
	"repro/internal/semiring"
	"repro/masked"
)

func main() {
	aPath := flag.String("a", "", "Matrix Market file for A (required)")
	bPath := flag.String("b", "", "Matrix Market file for B (default: A)")
	mPath := flag.String("mask", "", "Matrix Market file for the mask (default: pattern of A)")
	algName := flag.String("alg", "auto", "algorithm: 'auto' (planner) or a variant (MSA-1P..Inner-2P)")
	explain := flag.Bool("explain", false, "print the adaptive plan for these operands to stderr")
	complement := flag.Bool("complement", false, "use the complement of the mask")
	srName := flag.String("semiring", "arithmetic", "semiring: arithmetic | plus-pair | min-plus")
	threads := flag.Int("threads", runtime.GOMAXPROCS(0), "worker goroutines")
	batch := flag.Int("batch", 1, "submit the product this many times through the serving batch API")
	inflight := flag.Int("inflight", 0, "serving admission cap for -batch (0 = one request per worker thread)")
	timeout := flag.Duration("timeout", 0, "abort the multiply after this duration, e.g. 30s (0 = no limit)")
	outPath := flag.String("out", "", "output Matrix Market path (default: stats only)")
	flag.Parse()

	if *aPath == "" {
		fmt.Fprintln(os.Stderr, "mspgemm: -a is required")
		flag.PrintDefaults()
		os.Exit(2)
	}
	a, err := mmio.ReadFile(*aPath)
	check(err)
	b := a
	if *bPath != "" {
		b, err = mmio.ReadFile(*bPath)
		check(err)
	}
	var mask *matrix.Pattern
	if *mPath != "" {
		mm, err := mmio.ReadFile(*mPath)
		check(err)
		mask = mm.Pattern()
	} else {
		mask = a.Pattern()
	}

	var sr semiring.Semiring[float64]
	switch *srName {
	case "arithmetic":
		sr = semiring.Arithmetic()
	case "plus-pair":
		sr = semiring.PlusPairF()
	case "min-plus":
		sr = semiring.MinPlus()
	default:
		check(fmt.Errorf("unknown semiring %q", *srName))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := core.Options{Threads: *threads, Complement: *complement, Ctx: ctx}
	var plan *planner.Plan
	if *algName == "auto" || *explain {
		plan = planner.Analyze(mask, a.Pattern(), b.Pattern(), opt)
	}
	if *explain {
		// Analyze returns a fresh plan (not a shared cache entry), so the
		// operator-path label can be stamped in place.
		plan.Ops = core.OpsMode(sr)
		fmt.Fprint(os.Stderr, plan.Explain())
	}
	if *batch > 1 {
		runBatch(ctx, mask, a, b, sr, *algName, *threads, *batch, *inflight, *complement, *outPath)
		return
	}
	t0 := time.Now()
	var c *matrix.CSR[float64]
	switch *algName {
	case "auto":
		var stats []core.BlockStat
		c, err = planner.Execute(plan, mask, a, b, sr, opt, &stats)
		check(err)
		for _, bs := range stats {
			fmt.Fprintf(os.Stderr, "auto: rows [%d,%d) %s mask=%s → %d entries\n",
				bs.Block.Lo, bs.Block.Hi, bs.Block.Alg, bs.Block.Rep, bs.OutNNZ)
		}
	default:
		v, err := core.VariantByName(*algName)
		check(err)
		c, err = core.MaskedSpGEMM(v, mask, a, b, sr, opt)
		check(err)
	}
	elapsed := time.Since(t0)

	flops := core.Flops(a, b, *threads)
	fmt.Printf("A: %dx%d nnz=%d   B: %dx%d nnz=%d   mask nnz=%d\n",
		a.NRows, a.NCols, a.NNZ(), b.NRows, b.NCols, b.NNZ(), mask.NNZ())
	fmt.Printf("C: %dx%d nnz=%d   time=%v   flops(AB)=%d   GFLOPS=%.3f\n",
		c.NRows, c.NCols, c.NNZ(), elapsed.Round(time.Microsecond), flops,
		2*float64(flops)/elapsed.Seconds()/1e9)

	if *outPath != "" {
		check(mmio.WriteFile(*outPath, c))
		fmt.Fprintf(os.Stderr, "mspgemm: wrote %s\n", *outPath)
	}
}

// runBatch submits the product n times through the serving layer and
// reports aggregate throughput. Identical requests coalesce onto one
// computation, so this measures the serving path's admission, arbitration
// and single-flight machinery end to end on real operands.
func runBatch(ctx context.Context, mask *matrix.Pattern, a, b *matrix.CSR[float64], sr semiring.Semiring[float64],
	algName string, threads, n, inflight int, complement bool, outPath string) {
	ops := []masked.Op{masked.WithAccumulate(sr)}
	if complement {
		ops = append(ops, masked.WithComplement())
	}
	if algName != "auto" {
		v, err := core.VariantByName(algName)
		check(err)
		ops = append(ops, masked.WithVariant(v))
	}
	s := masked.NewSession(masked.WithThreads(threads), masked.WithInflight(inflight))
	reqs := make([]masked.BatchReq, n)
	for i := range reqs {
		reqs[i] = masked.BatchReq{M: mask, A: a, B: b, Opts: ops}
	}
	t0 := time.Now()
	res := s.MultiplyBatch(ctx, reqs)
	elapsed := time.Since(t0)
	coalesced := 0
	var c *matrix.CSR[float64]
	for _, r := range res {
		check(r.Err)
		c = r.C
		if r.Coalesced {
			coalesced++
		}
	}
	st := s.Stats().Arbiter
	fmt.Printf("batch: %d requests (%d computed, %d coalesced)   inflight cap=%d   budget=%d workers\n",
		n, n-coalesced, coalesced, st.MaxInflight, st.Budget)
	fmt.Printf("C: %dx%d nnz=%d   total=%v   %.0f req/s\n",
		c.NRows, c.NCols, c.NNZ(), elapsed.Round(time.Microsecond),
		float64(n)/elapsed.Seconds())
	if outPath != "" {
		check(mmio.WriteFile(outPath, c))
		fmt.Fprintf(os.Stderr, "mspgemm: wrote %s\n", outPath)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mspgemm:", err)
		os.Exit(1)
	}
}
