package core

// Deterministic block-timing tests. The clock is injected through
// Options.NowNs — a counter advancing 1000ns per reading, never a wall-clock
// read — so the per-block ElapsedNs attribution is asserted exactly: the
// blocked drivers take one reading at worker start plus one per chunk claim,
// attributing each inter-claim delta to the previously claimed chunk. The
// docscheck wall-clock gate enforces that this file stays clock-free.

import (
	"sync/atomic"
	"testing"

	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/semiring"
)

// tickClock returns an injectable NowNs advancing 1000ns per call.
func tickClock() func() int64 {
	var n atomic.Int64
	return func() int64 { return n.Add(1000) }
}

// timingBlocks is the two-block plan the tests execute: a 128-row product
// split at row 64 across two algorithm families.
func timingBlocks() []ExecBlock {
	return []ExecBlock{
		{Lo: 0, Hi: 64, Alg: MSA, Rep: RepCSR},
		{Lo: 64, Hi: 128, Alg: Hash, Rep: RepCSR},
	}
}

func runTimed(t *testing.T, phase Phase, grain int) ([]BlockStat, *matrix.CSR[float64]) {
	t.Helper()
	g := grgen.ErdosRenyi(128, 4, 3)
	opt := Options{Threads: 1, Grain: grain, NowNs: tickClock()}
	var stats []BlockStat
	c, err := MaskedSpGEMMBlocked(phase, timingBlocks(), g.Pattern(), g, g, nil, semiring.Arithmetic(), opt, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("got %d block stats, want 2", len(stats))
	}
	// Timing must never change the answer: compare against an untimed
	// single-variant run (all variants are bit-identical).
	want, err := MaskedSpGEMM(Variant{Alg: MSA, Phase: phase}, g.Pattern(), g, g, semiring.Arithmetic(), Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(c, want, func(a, b float64) bool { return a == b }) {
		t.Fatal("timed blocked product differs from untimed reference")
	}
	return stats, c
}

// TestBlockTimingInjectedClock1P pins the exact one-phase attribution: with
// Grain 64 the single worker claims the chunks [0,64) and [64,128), each
// followed by one clock reading, so the numeric pass charges each block
// exactly one 1000ns inter-claim delta.
func TestBlockTimingInjectedClock1P(t *testing.T) {
	stats, _ := runTimed(t, OnePhase, 64)
	for i, bs := range stats {
		if bs.ElapsedNs != 1000 {
			t.Fatalf("1P block %d ElapsedNs = %d, want 1000", i, bs.ElapsedNs)
		}
	}
}

// TestBlockTimingInjectedClock2P doubles the expectation: a two-phase run
// times both the symbolic and the numeric pass, so each block accumulates
// two 1000ns deltas.
func TestBlockTimingInjectedClock2P(t *testing.T) {
	stats, _ := runTimed(t, TwoPhase, 64)
	for i, bs := range stats {
		if bs.ElapsedNs != 2000 {
			t.Fatalf("2P block %d ElapsedNs = %d, want 2000", i, bs.ElapsedNs)
		}
	}
}

// TestBlockTimingProRataSplit forces one chunk to straddle the block
// boundary: with Grain 128 the worker claims all 128 rows at once, and the
// chunk's single 1000ns delta must split pro-rata by rows — 500ns per
// 64-row block.
func TestBlockTimingProRataSplit(t *testing.T) {
	stats, _ := runTimed(t, OnePhase, 128)
	for i, bs := range stats {
		if bs.ElapsedNs != 500 {
			t.Fatalf("pro-rata block %d ElapsedNs = %d, want 500", i, bs.ElapsedNs)
		}
	}
}

// TestBlockTimingDisabledWithoutStats runs the same blocked product without
// a stats sink and with a clock that counts its own readings: the drivers
// must not read the clock at all when nobody asked for timing.
func TestBlockTimingDisabledWithoutStats(t *testing.T) {
	g := grgen.ErdosRenyi(128, 4, 3)
	var reads atomic.Int64
	opt := Options{Threads: 1, Grain: 64, NowNs: func() int64 { return reads.Add(1000) }}
	if _, err := MaskedSpGEMMBlocked(OnePhase, timingBlocks(), g.Pattern(), g, g, nil, semiring.Arithmetic(), opt, nil); err != nil {
		t.Fatal(err)
	}
	if got := reads.Load(); got != 0 {
		t.Fatalf("clock read %d times with timing disabled, want 0", got)
	}
}
