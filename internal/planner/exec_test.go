package planner

// Deterministic execution-stamp tests. Every "measurement" here is an
// injected synthetic nanosecond count — never a wall-clock read — so the
// predicted-vs-actual rendering is asserted exactly and is shuffle/race
// stable. The docscheck wall-clock gate enforces that this file stays that
// way.

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grgen"
)

// TestExplainExecStampImmutable verifies the WithExec contract the cache
// depends on: execution observations are stamped onto a shallow copy, never
// onto the shared resident plan, so cache hits keep handing out plans with
// nil Exec.
func TestExplainExecStampImmutable(t *testing.T) {
	c := NewCache()
	g := grgen.ErdosRenyi(64, 2, 1)
	analyze := func() *Plan {
		return c.Analyze(g.Pattern(), g.Pattern(), g.Pattern(), core.Options{})
	}
	p := analyze()
	if p.CacheHit {
		t.Fatal("first Analyze reported a cache hit")
	}
	if p.cache != c {
		t.Fatal("fresh cache miss did not attach its cache")
	}

	stamped := p.WithExec(ExecStats{ActualNs: 2000, BlockNs: []int64{2000}})
	if stamped == p {
		t.Fatal("WithExec returned the receiver, not a copy")
	}
	if stamped.Exec == nil || stamped.Exec.ActualNs != 2000 {
		t.Fatalf("stamp missing on copy: %+v", stamped.Exec)
	}
	if p.Exec != nil {
		t.Fatal("WithExec mutated the cached plan")
	}
	if stamped.cache != p.cache {
		t.Fatal("shallow copy lost the cache pointer")
	}

	hit := analyze()
	if !hit.CacheHit {
		t.Fatal("second Analyze missed")
	}
	if hit.Exec != nil {
		t.Fatal("cache hit carried a previous caller's Exec stamp")
	}
	if !strings.Contains(stamped.Explain(), "feedback:") {
		t.Fatal("stamped plan's Explain lacks the predicted-vs-actual line")
	}
	if strings.Contains(p.Explain(), "feedback:") {
		t.Fatal("unstamped plan's Explain grew a predicted-vs-actual line")
	}
}

// TestExplainExecGolden pins the exact rendering of the predicted-vs-actual
// lines on a hand-built plan, so the format Session.Explain consumers parse
// cannot drift silently.
func TestExplainExecGolden(t *testing.T) {
	p := &Plan{
		Stats: Stats{NRows: 4, NCols: 4, NNZM: 8, NNZA: 8, NNZB: 8, Flops: 16, Bound1P: 8},
		Phase: core.OnePhase,
		Blocks: []Block{
			{Lo: 0, Hi: 2, Alg: core.MSA, MaskNNZ: 4, Flops: 8, PredictedNs: 1000, Reason: "test block"},
			{Lo: 2, Hi: 4, Alg: core.Hash, MaskNNZ: 4, Flops: 8, PredictedNs: 500, Reason: "test block"},
		},
		PredictedNs: 1500,
	}
	out := p.WithExec(ExecStats{ActualNs: 3000, BlockNs: []int64{2000, 1000}}).Explain()

	for _, want := range []string{
		"feedback: predicted 1.5µs, actual 3µs (ratio 2.00)\n",
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
	if !strings.Contains(out, "feedback: predicted 0s, actual 3µs\n") {
		t.Fatalf("unpriced Explain feedback line wrong:\n%s", out)
	}
	if strings.Contains(out, "ratio") {
		t.Fatalf("unpriced Explain grew a ratio clause:\n%s", out)
	}
}
