package parallel

import (
	"math/rand"
	"testing"
)

// buildPrefix turns per-row costs into the prefix array ForCostWorkers
// consumes.
func buildPrefix(costs []int64) []int64 {
	prefix := make([]int64, len(costs)+1)
	for i, c := range costs {
		prefix[i+1] = prefix[i] + c
	}
	return prefix
}

// randomCosts mixes uniform, zero and heavy-tailed rows.
func randomCosts(r *rand.Rand, n int) []int64 {
	costs := make([]int64, n)
	for i := range costs {
		switch r.Intn(10) {
		case 0:
			costs[i] = 0
		case 1:
			costs[i] = int64(r.Intn(100_000)) // heavy tail
		default:
			costs[i] = int64(1 + r.Intn(16))
		}
	}
	return costs
}

// TestForCostChunksTaper: with one worker the claims are deterministic;
// the guided taper must hand out a large first span and only O(log) + floor
// claims overall, and span costs must never grow.
func TestForCostChunksTaper(t *testing.T) {
	n := 10000
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = 1
	}
	prefix := buildPrefix(costs)
	var spans [][2]int
	ForCostWorkers(nil, n, 1, prefix, drain(func(lo, hi int) { spans = append(spans, [2]int{lo, hi}) }))
	if len(spans) == 0 || len(spans) > 64 {
		t.Fatalf("taper produced %d claims; want a handful", len(spans))
	}
	first := spans[0][1] - spans[0][0]
	if first < n/4 {
		t.Errorf("first span %d rows; guided taper should claim ~remaining/%d = %d", first, costTaperDivisor, n/costTaperDivisor)
	}
	for i := 1; i < len(spans); i++ {
		if cur, prev := spans[i][1]-spans[i][0], spans[i-1][1]-spans[i-1][0]; cur > prev {
			t.Errorf("span %d grew: %d rows after %d", i, cur, prev)
		}
	}
}

// TestForCostDegenerate: empty iteration spaces and malformed prefixes.
func TestForCostDegenerate(t *testing.T) {
	ran := false
	ForCostWorkers(nil, 0, 4, []int64{0}, drain(func(lo, hi int) { ran = true }))
	if ran {
		t.Error("n=0 must not invoke the body")
	}
	ForCostWorkers(nil, -3, 4, nil, drain(func(lo, hi int) { ran = true }))
	if ran {
		t.Error("negative n must not invoke the body")
	}
	defer func() {
		if recover() == nil {
			t.Error("short prefix must panic")
		}
	}()
	ForCostWorkers(nil, 5, 2, []int64{0, 1, 2}, drain(func(lo, hi int) {}))
}

// TestExclusiveScanParallel: the parallel scan must agree with the
// sequential scan on every size, including empty, single-element and sizes
// below the parallel threshold.
func TestExclusiveScanParallel(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 63, 1000, minScanBlock, 3*minScanBlock + 17} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(1000)) - 100 // scans must work on any ints
		}
		seq := append([]int64(nil), vals...)
		par := append([]int64(nil), vals...)
		wantTotal := ExclusiveScan(seq)
		gotTotal := ExclusiveScanParallel(par, 4)
		if gotTotal != wantTotal {
			t.Fatalf("n=%d: total %d, want %d", n, gotTotal, wantTotal)
		}
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("n=%d: par[%d]=%d, want %d", n, i, par[i], seq[i])
			}
		}
	}
}

// TestExclusiveScanBlocks: the block-scan core at pinned block counts,
// covering the single-block and more-blocks-than-elements corners the size
// heuristic never reaches.
func TestExclusiveScanBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 5, 100, 1023} {
		for _, nb := range []int{1, 2, 3, 7, n, n + 5} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(r.Intn(50))
			}
			seq := append([]int64(nil), vals...)
			par := append([]int64(nil), vals...)
			wantTotal := ExclusiveScan(seq)
			gotTotal := exclusiveScanBlocks(par, nb)
			if gotTotal != wantTotal {
				t.Fatalf("n=%d nb=%d: total %d, want %d", n, nb, gotTotal, wantTotal)
			}
			for i := range seq {
				if par[i] != seq[i] {
					t.Fatalf("n=%d nb=%d: par[%d]=%d, want %d", n, nb, i, par[i], seq[i])
				}
			}
		}
	}
}
