package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/grgen"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/masked"
)

// serve-wire: a localhost server (two workers, calibration off) driven in
// a closed loop by two wire clients over a seeded hot/cold catalog of
// Multiply requests spanning the paper's density corners.

// serveClients is the closed loop's concurrency.
const serveClients = 2

// catalogKinds are the density corners of the catalog, in hotness order
// within each group of four ranks.
var catalogKinds = []string{"inner", "heap", "complement", "tc"}

// catalogPerKind is the number of distinct requests of each kind.
const catalogPerKind = 4

// cycleLen is the length of each client's request cycle; entry counts in
// a cycle follow the catalog's zipf weights exactly.
const cycleLen = 64

// serveEntry is one catalog request and its reference response.
type serveEntry struct {
	kind string
	req  *wire.MultiplyReq
	opts []masked.Op
	want []byte // encoded MultiplyRes carrying only the reference product
}

// encodeProduct is the byte form responses are compared in: a response
// frame holding only the product. Flags and the worker share vary with
// concurrency, so they are left out of the comparison.
func encodeProduct(c *masked.Matrix) []byte {
	return (&wire.MultiplyRes{C: c}).Encode(nil)
}

// buildRequest makes the request of one kind. Sizes keep each product at
// one to two milliseconds of compute at two threads and each request
// under 1 MiB, so per-request overhead weighs as much as the kernel.
func buildRequest(kind string, short bool, seed uint64) (*wire.MultiplyReq, []masked.Op) {
	n := masked.Index(1024)
	if short {
		n = 256
	}
	s := func(salt uint64) uint64 { return mixSeed(seed, salt) }
	switch kind {
	case "inner": // sparse mask, denser inputs: the planner picks Inner
		return &wire.MultiplyReq{
			M: grgen.Random01Mask(n, n, 1, s(1)),
			A: grgen.ErdosRenyi(n, 32, s(2)),
			B: grgen.ErdosRenyi(n, 32, s(3)),
		}, nil
	case "heap": // sparse inputs, denser mask: Heap
		return &wire.MultiplyReq{
			M: grgen.Random01Mask(2*n, 2*n, 64, s(1)),
			A: grgen.ErdosRenyi(2*n, 2, s(2)),
			B: grgen.ErdosRenyi(2*n, 2, s(3)),
		}, nil
	case "complement": // complemented mask: MSA or Hash only
		return &wire.MultiplyReq{
			Flags: wire.FlagComplement,
			M:     grgen.Random01Mask(2*n, 2*n, 4, s(1)),
			A:     grgen.ErdosRenyi(2*n, 4, s(2)),
			B:     grgen.ErdosRenyi(2*n, 4, s(3)),
		}, []masked.Op{masked.WithComplement()}
	default: // "tc": plus-pair triangle product on a small R-MAT graph
		scale := 10
		if short {
			scale = 7
		}
		l := relabel(grgen.RMAT(scale, 16, s(1)))
		return &wire.MultiplyReq{Semiring: "plus-pair", M: l.Pattern(), A: l, B: l},
			[]masked.Op{plusPair}
	}
}

// buildCatalog generates the catalog, hottest rank first, with each
// entry's reference product computed in-process on a separate session.
func buildCatalog(cfg config) ([]serveEntry, error) {
	ref := masked.NewSession(masked.WithThreads(threads()))
	var cat []serveEntry
	for i := 0; i < catalogPerKind; i++ {
		for k, kind := range catalogKinds {
			req, opts := buildRequest(kind, cfg.short, mixSeed(cfg.seed, uint64(100*i+k+1)))
			c, err := ref.Multiply(context.Background(), req.M, req.A, req.B, opts...)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", kind, err)
			}
			cat = append(cat, serveEntry{kind: kind, req: req, opts: opts, want: encodeProduct(c)})
		}
	}
	return cat, nil
}

// cycleCounts is how often each catalog rank appears in one request
// cycle: zipf weights 1/(r+1) rounded, every rank at least once.
func cycleCounts(n int) []int {
	var sum float64
	for r := 0; r < n; r++ {
		sum += 1 / float64(r+1)
	}
	counts := make([]int, n)
	total := 0
	for r := range counts {
		counts[r] = max(1, int(math.Round(cycleLen/sum/float64(r+1))))
		total += counts[r]
	}
	counts[0] += cycleLen - total // the hottest rank absorbs rounding
	return counts
}

// clientCycle is client c's request sequence: the cycle's entries in a
// seeded order.
func clientCycle(seed uint64, c, n int) []int {
	var seq []int
	for r, k := range cycleCounts(n) {
		for i := 0; i < k; i++ {
			seq = append(seq, r)
		}
	}
	rng := rand.New(rand.NewSource(int64(mixSeed(seed, uint64(1000+c)))))
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// serveState is a set-up serve-wire workload.
type serveState struct {
	local     *server.Local
	transport *http.Transport
	clients   []*server.Client
	catalog   []serveEntry
	cycles    [][]int
}

func (st *serveState) close() {
	st.transport.CloseIdleConnections()
	_ = st.local.Close() // a drain error leaves nothing to release here
}

// setupServe builds the catalog and references, starts the server and
// clients, and warms up: every catalog entry once (operand interning and
// plan cache), then one full cycle per client.
func setupServe(cfg config, t *tally) (*serveState, error) {
	cat, err := buildCatalog(cfg)
	if err != nil {
		return nil, err
	}
	local, err := server.StartLocal(server.Config{Threads: threads(), Inflight: serveClients})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	st := &serveState{
		local:     local,
		transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
		catalog:   cat,
	}
	hc := &http.Client{Transport: st.transport}
	for c := 0; c < serveClients; c++ {
		st.clients = append(st.clients, server.NewClient(local.URL, hc))
		st.cycles = append(st.cycles, clientCycle(cfg.seed, c, len(cat)))
	}
	ctx := context.Background()
	for i := range cat {
		_, ok := st.op(ctx, st.clients[0], i)
		t.add(ok)
	}
	var mu sync.Mutex
	st.loop(func(c, k int) bool { return k < len(st.cycles[c]) }, func(c, _, i int) {
		_, ok := st.op(ctx, st.clients[c], i)
		mu.Lock()
		t.add(ok)
		mu.Unlock()
	})
	return st, nil
}

// op sends catalog entry i and byte-compares the product with the
// reference. A refused (429) or failed request is not ok.
func (st *serveState) op(ctx context.Context, cl *server.Client, i int) (time.Duration, bool) {
	t0 := time.Now()
	res, err := cl.Multiply(ctx, st.catalog[i].req)
	d := time.Since(t0)
	return d, err == nil && bytes.Equal(encodeProduct(res.C), st.catalog[i].want)
}

// loop runs the closed loop: each client sends the requests of its cycle
// back to back, the k-th one while more(c, k) holds, through send(c, k, i)
// with i the catalog entry.
func (st *serveState) loop(more func(c, k int) bool, send func(c, k, i int)) {
	var wg sync.WaitGroup
	for c := range st.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seq := st.cycles[c]
			for k := 0; more(c, k); k++ {
				send(c, k, seq[k%len(seq)])
			}
		}()
	}
	wg.Wait()
}

func runServe(cfg config) (map[string]metric, tally, error) {
	var t tally
	st, setups, err := timeSetup(func() (*serveState, error) { return setupServe(cfg, &t) }, (*serveState).close)
	if err != nil {
		return nil, t, err
	}
	defer st.close()
	lat := make([][]float64, serveClients)
	fails := make([]tally, serveClients)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	st.loop(func(int, int) bool { return time.Now().Before(deadline) }, func(c, _, i int) {
		d, ok := st.op(ctx, st.clients[c], i)
		lat[c] = append(lat[c], ms(d))
		fails[c].add(ok)
	})
	wall := time.Since(start)
	var all []float64
	for c := range lat {
		all = append(all, lat[c]...)
		t.merge(fails[c])
	}
	return endToEnd(all, wall, setups), t, nil
}

// tracedServe is the per-layer run of serve-wire: a closed loop where each
// client alternates untraced and traced requests (the loop's counter
// deltas give the intern, plan-cache, rejection and arbiter ratios), then
// sequential probes on the idle server that split one request into
// encode, decode, in-process compute and the round trip.
func tracedServe(cfg config, tr *tracer) (map[string]metric, tally, error) {
	var t tally
	st, err := setupServe(cfg, &t)
	if err != nil {
		return nil, t, err
	}
	defer st.close()
	sv := st.local.Server
	perClient := 200
	if cfg.short {
		perClient = 16
	}
	m0 := sv.Metrics()
	var mu sync.Mutex
	var untraced, traced []float64
	ctx := context.Background()
	st.loop(func(_, k int) bool { return k < perClient }, func(c, k, i int) {
		var (
			d  time.Duration
			ok bool
		)
		if k%2 == 0 {
			d, ok = st.op(ctx, st.clients[c], i)
		} else {
			root := tr.begin("serve.op", int64(c*perClient+k), -1)
			d, ok = st.op(ctx, st.clients[c], i)
			tr.end(root)
		}
		mu.Lock()
		defer mu.Unlock()
		if k%2 == 0 {
			untraced = append(untraced, ms(d))
		} else {
			traced = append(traced, ms(d))
		}
		t.add(ok)
	})
	m1 := sv.Metrics()
	reqs := float64(m1.MultiplyRequests - m0.MultiplyRequests)
	internHits := float64(m1.InternHits - m0.InternHits)
	internAll := internHits + float64(m1.InternMisses-m0.InternMisses)
	cacheHits := float64(m1.Session.Cache.Hits - m0.Session.Cache.Hits)
	cacheAll := cacheHits + float64(m1.Session.Cache.Misses-m0.Session.Cache.Misses)
	out := map[string]metric{
		"server.intern_hit_ratio": {internHits / max(internAll, 1), "ratio"},
		"server.rejected_ratio":   {float64(m1.Rejected-m0.Rejected) / max(reqs, 1), "ratio"},
		"planner.cache_hit_ratio": {cacheHits / max(cacheAll, 1), "ratio"},
		"parallel.steals_per_req": {float64(m1.Session.Arbiter.Steals-m0.Session.Arbiter.Steals) / max(reqs, 1), "count"},
		"parallel.topups_per_req": {float64(m1.Session.Arbiter.TopUps-m0.Session.Arbiter.TopUps) / max(reqs, 1), "count"},
		"server.intern_hits":      {internHits, "count"},
		"server.intern_misses":    {internAll - internHits, "count"},
	}
	probes, pt, err := st.probe(cfg)
	t.merge(pt)
	if err != nil {
		return nil, t, err
	}
	for k, v := range probes {
		out[k] = v
	}
	if tr != nil {
		rt := probes["server.roundtrip_ms"].Value
		// On serve-wire the blocking step of an op is the idle round trip;
		// the rest of op_ms is queueing behind the other connection.
		for k, v := range overheadMetrics(untraced, traced, []float64{rt}) {
			out[k] = v
		}
	}
	return out, t, nil
}

// probe replays client 0's request cycle on the idle server, one step at
// a time: back-to-back round trips from one client, then the same
// products in-process, then encoding and decoding alone. Times are
// medians over all requests, the statistic op_ms uses over the same mix;
// sizes are means over the cycle.
func (st *serveState) probe(cfg config) (map[string]metric, tally, error) {
	var t tally
	ctx := context.Background()
	sess := st.local.Server.Session()
	reps := 3
	if cfg.short {
		reps = 1
	}
	cycle := st.cycles[0]
	var enc, dec, rt, comp []float64
	for r := 0; r < reps; r++ {
		for _, i := range cycle {
			d, ok := st.op(ctx, st.clients[0], i)
			rt = append(rt, ms(d))
			t.add(ok)
		}
	}
	for r := 0; r < reps; r++ {
		for _, i := range cycle {
			e := st.catalog[i]
			t0 := time.Now()
			c, err := sess.Multiply(ctx, e.req.M, e.req.A, e.req.B, e.opts...)
			comp = append(comp, ms(time.Since(t0)))
			t.add(err == nil && bytes.Equal(encodeProduct(c), e.want))
		}
	}
	var reqKB, resKB float64
	for r := 0; r < reps; r++ {
		for _, i := range cycle {
			e := st.catalog[i]
			t0 := time.Now()
			frame := wire.WithChecksum(e.req.Encode(nil))
			enc = append(enc, float64(time.Since(t0))/float64(time.Microsecond))

			t0 = time.Now()
			_, payload, _, err := wire.DecodeFrame(frame)
			if err != nil {
				return nil, t, fmt.Errorf("decode frame: %w", err)
			}
			req, err := wire.DecodeMultiplyReq(payload)
			if err == nil {
				err = req.Validate()
			}
			dec = append(dec, float64(time.Since(t0))/float64(time.Microsecond))
			if err != nil {
				return nil, t, fmt.Errorf("decode request: %w", err)
			}
			if r == 0 {
				reqKB += float64(len(frame)) / 1024 / float64(len(cycle))
				resKB += float64(len(e.want)) / 1024 / float64(len(cycle))
			}
		}
	}
	return map[string]metric{
		"wire.encode_us":      {median(enc), "us"},
		"wire.decode_us":      {median(dec), "us"},
		"wire.req_kb":         {reqKB, "KiB"},
		"wire.res_kb":         {resKB, "KiB"},
		"server.roundtrip_ms": {median(rt), "ms"},
		"server.compute_ms":   {median(comp), "ms"},
		"server.overhead_ms":  {median(rt) - median(comp), "ms"},
	}, t, nil
}
