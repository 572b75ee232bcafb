package planner

// Deterministic feedback-loop tests. Every "measurement" here is an injected
// synthetic nanosecond count — never a wall-clock read — so the EWMA, band,
// streak and invalidation assertions are exact and shuffle/race-stable. The
// docscheck wall-clock gate enforces that this file stays that way.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/grgen"
)

// plannedEntry analyzes one small product through the cache and pins the
// resident plan's PredictedNs to 1000, so a record of actualNs = 1000·r has
// the exact ratio r (dyadic ratios keep the alpha-0.25 EWMA arithmetic exact
// in float64). The fresh-miss Analyze returns the resident *Plan itself, so
// the override is visible to every later cache hit.
func plannedEntry(t *testing.T, c *Cache) (*Plan, func() *Plan) {
	t.Helper()
	g := grgen.ErdosRenyi(64, 2, 1)
	analyze := func() *Plan {
		return c.Analyze(g.Pattern(), g.Pattern(), g.Pattern(), core.Options{})
	}
	p := analyze()
	if p.CacheHit {
		t.Fatal("first Analyze reported a cache hit")
	}
	if p.fb == nil {
		t.Fatal("fresh cache miss did not attach feedback state")
	}
	p.PredictedNs = 1000
	return p, analyze
}

func assertState(t *testing.T, got FeedbackState, ewma, baseline float64, execs int64, streak int, invalidated bool) {
	t.Helper()
	want := FeedbackState{EWMA: ewma, Baseline: baseline, Execs: execs, Streak: streak, Invalidated: invalidated}
	if got != want {
		t.Fatalf("feedback state = %+v, want %+v", got, want)
	}
}

// TestFeedbackWarmupBaseline pins the exact EWMA fold and the baseline
// freeze: the first FeedbackWarmup executions keep re-freezing the baseline,
// and the first post-warmup execution measures drift against it without
// moving it.
func TestFeedbackWarmupBaseline(t *testing.T) {
	c := NewCache()
	p, _ := plannedEntry(t, c)

	st, inv := c.Record(p, 1000) // ratio 1: first exec seeds the EWMA directly
	assertState(t, st, 1, 1, 1, 0, false)
	st, _ = c.Record(p, 2000) // ratio 2: 0.25·2 + 0.75·1
	assertState(t, st, 1.25, 1.25, 2, 0, false)
	st, _ = c.Record(p, 1000) // ratio 1: 0.25·1 + 0.75·1.25; last warmup exec
	assertState(t, st, 1.1875, 1.1875, 3, 0, false)
	if inv {
		t.Fatal("warmup execution reported invalidation")
	}

	// Past warmup the baseline is frozen; a 4× spike lands between the
	// re-entry and trigger bands (rel ≈ 1.59), so the zero streak holds.
	st, _ = c.Record(p, 4000) // 0.25·4 + 0.75·1.1875
	assertState(t, st, 1.890625, 1.1875, 4, 0, false)

	if got := c.Stats().Records; got != 4 {
		t.Fatalf("Records = %d, want 4", got)
	}
	if got := c.Stats().Replans; got != 0 {
		t.Fatalf("Replans = %d, want 0", got)
	}
}

// TestFeedbackRecordIgnores enumerates the records the loop must discard:
// nil plans, plans that never entered a cache, non-positive measurements and
// unpriced plans. None may move the Records counter.
func TestFeedbackRecordIgnores(t *testing.T) {
	c := NewCache()
	p, _ := plannedEntry(t, c)

	if st, inv := c.Record(nil, 1000); st != (FeedbackState{}) || inv {
		t.Fatal("nil plan was not ignored")
	}
	g := grgen.ErdosRenyi(32, 2, 2)
	uncached := Analyze(g.Pattern(), g.Pattern(), g.Pattern(), core.Options{})
	if st, inv := c.Record(uncached, 1000); st != (FeedbackState{}) || inv {
		t.Fatal("cache-less plan was not ignored")
	}
	if st, inv := c.Record(p, 0); st != (FeedbackState{}) || inv {
		t.Fatal("zero measurement was not ignored")
	}
	if st, inv := c.Record(p, -5); st != (FeedbackState{}) || inv {
		t.Fatal("negative measurement was not ignored")
	}
	unpriced := *p
	unpriced.PredictedNs = 0
	if st, inv := c.Record(&unpriced, 1000); st != (FeedbackState{}) || inv {
		t.Fatal("unpriced plan was not ignored")
	}

	if got := c.Stats().Records; got != 0 {
		t.Fatalf("Records = %d after ignored records, want 0", got)
	}
	if got := p.Feedback(); got != (FeedbackState{}) {
		t.Fatalf("feedback state moved on ignored records: %+v", got)
	}
}

// TestFeedbackHysteresis drives the EWMA out of the trigger band once and
// then decays it with on-prediction executions: while the EWMA sits between
// the re-entry band (1.5×) and the trigger band (3×) the streak must hold at
// 1 — neither advancing toward invalidation nor re-arming — and only reset
// once the EWMA decays inside the re-entry band.
func TestFeedbackHysteresis(t *testing.T) {
	c := NewCache()
	p, _ := plannedEntry(t, c)
	for i := 0; i < FeedbackWarmup; i++ {
		c.Record(p, 1000) // baseline 1
	}

	st, _ := c.Record(p, 10000) // EWMA 3.25 > 3: streak starts
	assertState(t, st, 3.25, 1, 4, 1, false)

	// Exact alpha-0.25 decay from 3.25 under ratio-1 executions.
	decay := []float64{2.6875, 2.265625, 1.94921875, 1.7119140625, 1.533935546875}
	for i, want := range decay {
		st, inv := c.Record(p, 1000)
		if inv {
			t.Fatalf("decay step %d invalidated", i)
		}
		assertState(t, st, want, 1, int64(5+i), 1, false)
	}

	// One more ratio-1 execution crosses 1.5: 0.25 + 0.75·1.533935546875.
	st, _ = c.Record(p, 1000)
	assertState(t, st, 1.40045166015625, 1, 10, 0, false)

	if got := c.Stats().Replans; got != 0 {
		t.Fatalf("Replans = %d, want 0", got)
	}
}

// TestFeedbackSustainedDriftInvalidates runs the full re-plan path: after a
// ratio-1 warmup, sustained 10× mispredictions must advance the streak once
// per execution and invalidate on exactly the FeedbackTrigger-th, dropping
// the cache entry; records after invalidation are ignored and the next
// Analyze re-plans with fresh feedback state.
func TestFeedbackSustainedDriftInvalidates(t *testing.T) {
	c := NewCache()
	p, analyze := plannedEntry(t, c)
	g := grgen.ErdosRenyi(64, 2, 1) // same seed as plannedEntry: same operands
	for i := 0; i < FeedbackWarmup; i++ {
		c.Record(p, 1000) // baseline 1
	}

	// EWMA walk toward 10: 3.25, 4.9375, 6.203125, 7.15234375 — all > 3×.
	ewmas := []float64{3.25, 4.9375, 6.203125, 7.15234375}
	for i, want := range ewmas {
		st, inv := c.Record(p, 10000)
		last := i == FeedbackTrigger-1
		if inv != last {
			t.Fatalf("drift record %d: invalidated = %v, want %v", i+1, inv, last)
		}
		assertState(t, st, want, 1, int64(FeedbackWarmup+1+i), i+1, last)
	}

	st := c.Stats()
	if st.Records != int64(FeedbackWarmup+FeedbackTrigger) {
		t.Fatalf("Records = %d, want %d", st.Records, FeedbackWarmup+FeedbackTrigger)
	}
	if st.Replans != 1 {
		t.Fatalf("Replans = %d, want 1", st.Replans)
	}

	// The entry is gone: Peek misses, and further records against the stale
	// handle are ignored (state frozen, counters unmoved).
	if _, ok := c.Peek(g.Pattern(), g.Pattern(), g.Pattern(), core.Options{}); ok {
		t.Fatal("invalidated entry still resident")
	}
	frozen, inv := c.Record(p, 10000)
	if inv || !frozen.Invalidated || frozen.Execs != int64(FeedbackWarmup+FeedbackTrigger) {
		t.Fatalf("post-invalidation record not ignored: %+v inv=%v", frozen, inv)
	}
	if got := c.Stats().Records; got != st.Records {
		t.Fatalf("Records moved on post-invalidation record: %d", got)
	}

	// Re-analysis misses, installs a fresh entry with zeroed feedback.
	missesBefore := c.Stats().Misses
	fresh := analyze()
	if fresh.CacheHit {
		t.Fatal("Analyze after invalidation reported a cache hit")
	}
	if got := c.Stats().Misses; got != missesBefore+1 {
		t.Fatalf("Misses = %d, want %d", got, missesBefore+1)
	}
	if got := fresh.Feedback(); got != (FeedbackState{}) {
		t.Fatalf("re-planned entry inherited feedback state: %+v", got)
	}
}

// TestFeedbackConcurrentRecord hammers one entry's feedback state from many
// goroutines. The per-entry mutex serializes the folds and every drift
// record carries the same ratio, so the outcome is deterministic regardless
// of interleaving: the streak fires exactly once, on the FeedbackTrigger-th
// post-warmup record, and every later record is ignored. Run under -race.
func TestFeedbackConcurrentRecord(t *testing.T) {
	c := NewCache()
	p, _ := plannedEntry(t, c)
	for i := 0; i < FeedbackWarmup; i++ {
		c.Record(p, 1000) // baseline 1
	}

	const goroutines, perG = 8, 100
	var wg sync.WaitGroup
	invalidations := make([]int, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, inv := c.Record(p, 10000); inv {
					invalidations[gi]++
				}
			}
		}(gi)
	}
	wg.Wait()

	total := 0
	for _, n := range invalidations {
		total += n
	}
	if total != 1 {
		t.Fatalf("invalidation fired %d times, want exactly 1", total)
	}
	st := c.Stats()
	if st.Replans != 1 {
		t.Fatalf("Replans = %d, want 1", st.Replans)
	}
	if st.Records != int64(FeedbackWarmup+FeedbackTrigger) {
		t.Fatalf("Records = %d, want %d (post-invalidation records must be ignored)",
			st.Records, FeedbackWarmup+FeedbackTrigger)
	}
}

// TestFeedbackConcurrentReplanStress mixes records against a drifting entry
// with concurrent re-analyses of the same product — the serving shape where
// one request invalidates while others are installing. Interleavings are
// nondeterministic, so only invariants are asserted: counters stay monotonic
// and re-plans never outrun the trigger arithmetic. Run under -race.
func TestFeedbackConcurrentReplanStress(t *testing.T) {
	c := NewCache()
	p, analyze := plannedEntry(t, c)
	var wg sync.WaitGroup
	prev := c.Stats()
	for gi := 0; gi < 8; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if gi%2 == 0 {
					// Analyze may hand every goroutine the same resident
					// plan, so set the prediction on a private shallow
					// copy; it keeps the shared feedback pointer.
					q := *analyze()
					q.PredictedNs = 1000
					ns := int64(1000)
					if i%3 == 0 {
						ns = 10000
					}
					c.Record(&q, ns)
				} else {
					c.Record(p, 10000)
				}
			}
		}(gi)
	}
	wg.Wait()

	st := c.Stats()
	if st.Records < 1 {
		t.Fatalf("Records = %d, want ≥ 1", st.Records)
	}
	if st.Replans < 0 || st.Replans > st.Records/FeedbackTrigger {
		t.Fatalf("Replans = %d implausible for %d records", st.Replans, st.Records)
	}
	if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Records < prev.Records || st.Replans < prev.Replans {
		t.Fatalf("counters ran backwards: %+v", st)
	}
}

// TestExplainExecStampImmutable verifies the WithExec contract the cache
// depends on: execution observations are stamped onto a shallow copy, never
// onto the shared resident plan, so cache hits keep handing out plans with
// nil Exec.
func TestExplainExecStampImmutable(t *testing.T) {
	c := NewCache()
	p, analyze := plannedEntry(t, c)

	stamped := p.WithExec(ExecStats{ActualNs: 2000, BlockNs: []int64{2000}, Feedback: FeedbackState{EWMA: 2, Execs: 1}})
	if stamped == p {
		t.Fatal("WithExec returned the receiver, not a copy")
	}
	if stamped.Exec == nil || stamped.Exec.ActualNs != 2000 {
		t.Fatalf("stamp missing on copy: %+v", stamped.Exec)
	}
	if p.Exec != nil {
		t.Fatal("WithExec mutated the cached plan")
	}
	if stamped.fb != p.fb {
		t.Fatal("shallow copy lost the shared feedback pointer")
	}

	hit := analyze()
	if !hit.CacheHit {
		t.Fatal("second Analyze missed")
	}
	if hit.Exec != nil {
		t.Fatal("cache hit carried a previous caller's Exec stamp")
	}
	if !strings.Contains(stamped.Explain(), "feedback:") {
		t.Fatal("stamped plan's Explain lacks the feedback line")
	}
	if strings.Contains(p.Explain(), "feedback:") {
		t.Fatal("unstamped plan's Explain grew a feedback line")
	}
}

// TestExplainFeedbackGolden pins the exact rendering of the
// predicted-vs-actual feedback lines on a hand-built plan, so the format
// Session.Explain consumers parse cannot drift silently.
func TestExplainFeedbackGolden(t *testing.T) {
	p := &Plan{
		Stats: Stats{NRows: 4, NCols: 4, NNZM: 8, NNZA: 8, NNZB: 8, Flops: 16, Bound1P: 8},
		Phase: core.OnePhase,
		Blocks: []Block{
			{Lo: 0, Hi: 2, Alg: core.MSA, Rep: core.RepCSR, MaskNNZ: 4, Flops: 8, PredictedNs: 1000, Reason: "test block"},
			{Lo: 2, Hi: 4, Alg: core.Hash, Rep: core.RepBitmap, MaskNNZ: 4, Flops: 8, PredictedNs: 500, Reason: "test block"},
		},
		PredictedNs: 1500,
	}
	out := p.WithExec(ExecStats{
		ActualNs: 3000,
		BlockNs:  []int64{2000, 1000},
		Feedback: FeedbackState{EWMA: 1.25, Baseline: 1, Execs: 5},
	}).Explain()

	for _, want := range []string{
		"feedback: predicted 1.5µs, actual 3µs (ratio 2.00), ewma 1.25 over 5 exec(s)\n",
		" [predicted 1µs, actual 2µs]",
		" [predicted 500ns, actual 1µs]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain output missing %q:\n%s", want, out)
		}
	}

	// Unpriced plans render without the ratio clause.
	unpriced := *p
	unpriced.PredictedNs = 0
	out = unpriced.WithExec(ExecStats{ActualNs: 3000}).Explain()
	if !strings.Contains(out, "feedback: predicted 0s, actual 3µs, ewma 0.00 over 0 exec(s)\n") {
		t.Fatalf("unpriced Explain feedback line wrong:\n%s", out)
	}
	if strings.Contains(out, "ratio") {
		t.Fatalf("unpriced Explain grew a ratio clause:\n%s", out)
	}
}
