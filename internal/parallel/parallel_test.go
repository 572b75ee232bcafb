package parallel

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// loops adapts the three loops to one shape: each runs body over the spans
// it claims of [0, n). ForWorkers and ForChunks use grain 16; ForCostWorkers
// schedules over a random cost profile with zero and heavy-tailed rows.
var loops = []struct {
	name string
	run  func(ctx context.Context, n, workers int, body func(lo, hi int)) error
}{
	{"ForWorkers", func(ctx context.Context, n, workers int, body func(lo, hi int)) error {
		return ForWorkers(ctx, n, workers, 16, drain(body))
	}},
	{"ForCostWorkers", func(ctx context.Context, n, workers int, body func(lo, hi int)) error {
		prefix := buildPrefix(randomCosts(rand.New(rand.NewSource(int64(n))), max(n, 0)))
		return ForCostWorkers(ctx, n, workers, prefix, drain(body))
	}},
	{"ForChunks", func(ctx context.Context, n, workers int, body func(lo, hi int)) error {
		return ForChunks(ctx, n, workers, 16, body)
	}},
}

// drain is a worker that runs body on every span it claims.
func drain(body func(lo, hi int)) func(int, func() (int, int, bool)) {
	return func(_ int, claim func() (int, int, bool)) {
		for lo, hi, ok := claim(); ok; lo, hi, ok = claim() {
			body(lo, hi)
		}
	}
}

// TestLoops runs each loop under every kind of context at one and at four
// workers. Claims must be disjoint and, unless cancelled, cover the range;
// a cancelled run returns ctx.Err() (a pre-cancelled one runs nothing, a
// mid-flight one stops early); a body panic reaches the caller, as a
// WorkerPanic when it crossed from a worker goroutine.
func TestLoops(t *testing.T) {
	for _, loop := range loops {
		for _, workers := range []int{1, 4} {
			for _, mode := range []string{"nil", "background", "pre-cancelled", "mid-flight", "panic"} {
				t.Run(fmt.Sprintf("%s/%s/p%d", loop.name, mode, workers), func(t *testing.T) {
					sizes := []int{-3, 0, 1, 7, 100, 10_000}
					if mode != "nil" && mode != "background" {
						sizes = []int{10_000}
					}
					for _, n := range sizes {
						checkLoop(t, loop.run, mode, n, workers)
					}
				})
			}
		}
	}
}

func checkLoop(t *testing.T, run func(context.Context, int, int, func(lo, hi int)) error, mode string, n, workers int) {
	t.Helper()
	var ctx context.Context
	var cancel context.CancelFunc = func() {}
	switch mode {
	case "background":
		ctx = context.Background()
	case "pre-cancelled", "mid-flight":
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		if mode == "pre-cancelled" {
			cancel()
		}
	}
	hits := make([]int32, max(n, 0))
	var ran atomic.Int64
	body := func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("n=%d: bad span [%d,%d)", n, lo, hi)
			return
		}
		if mode == "panic" && lo <= 500 && 500 < hi {
			panic("boom at 500")
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
		if ran.Add(int64(hi-lo)) >= 1024 && mode == "mid-flight" {
			cancel() // later claims must stop
		}
	}
	var caught any
	err := func() error {
		defer func() { caught = recover() }()
		return run(ctx, n, workers, body)
	}()

	switch mode {
	case "panic":
		got := caught
		if wp, ok := caught.(WorkerPanic); ok {
			got = wp.Value
		} else if workers > 1 {
			t.Fatalf("recovered %T %v, want WorkerPanic", caught, caught)
		}
		if got != "boom at 500" {
			t.Fatalf("recovered %v, want the body's panic", caught)
		}
		return
	case "pre-cancelled", "mid-flight":
		if err != context.Canceled {
			t.Fatalf("n=%d: err %v, want context.Canceled", n, err)
		}
		if mode == "pre-cancelled" && ran.Load() != 0 {
			t.Fatalf("pre-cancelled context ran %d indices", ran.Load())
		}
		if ran.Load() >= int64(n) {
			t.Fatalf("loop ran all %d indices despite cancellation", n)
		}
	default:
		if err != nil {
			t.Fatalf("n=%d: err %v with an uncancellable context", n, err)
		}
	}
	if caught != nil {
		t.Fatalf("n=%d: unexpected panic %v", n, caught)
	}
	for i, h := range hits {
		if h > 1 || (h == 0 && err == nil) {
			t.Fatalf("n=%d: index %d ran %d times", n, i, h)
		}
	}
}

func TestForGrainCoverage(t *testing.T) {
	prop := func(seed int64) bool {
		n := int(seed%500 + 1)
		if n < 0 {
			n = -n + 1
		}
		grain := int(seed%7 + 1)
		if grain < 1 {
			grain = 1
		}
		var sum atomic.Int64
		ForChunks(nil, n, 4, grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sum.Add(int64(i))
			}
		})
		return sum.Load() == int64(n)*int64(n-1)/2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestForWorkersReusableState(t *testing.T) {
	const n = 500
	var total atomic.Int64
	var workersSeen atomic.Int64
	ForWorkers(nil, n, 4, 16, func(id int, claim func() (int, int, bool)) {
		workersSeen.Add(1)
		local := int64(0) // per-worker scratch reused across chunks
		for {
			lo, hi, ok := claim()
			if !ok {
				break
			}
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
		}
		total.Add(local)
	})
	if total.Load() != int64(n)*int64(n-1)/2 {
		t.Fatalf("sum = %d", total.Load())
	}
	if workersSeen.Load() < 1 {
		t.Fatal("no workers ran")
	}
}

func TestForWorkersZeroAndTiny(t *testing.T) {
	ran := false
	ForWorkers(nil, 0, 4, 16, func(int, func() (int, int, bool)) { ran = true })
	if ran {
		t.Fatal("no work for n=0")
	}
	var count atomic.Int32
	ForWorkers(nil, 1, 8, 64, func(_ int, claim func() (int, int, bool)) {
		for {
			lo, hi, ok := claim()
			if !ok {
				return
			}
			count.Add(int32(hi - lo))
		}
	})
	if count.Load() != 1 {
		t.Fatalf("covered %d, want 1", count.Load())
	}
}

// TestForChunksOneWorkerWholeRange: with one worker and an uncancellable
// context, ForChunks hands the whole range to one body call.
func TestForChunksOneWorkerWholeRange(t *testing.T) {
	for _, ctx := range []context.Context{nil, context.Background()} {
		var spans [][2]int
		ForChunks(ctx, 1000, 1, 16, func(lo, hi int) { spans = append(spans, [2]int{lo, hi}) })
		if len(spans) != 1 || spans[0] != [2]int{0, 1000} {
			t.Fatalf("one worker: spans %v, want [[0 1000]]", spans)
		}
	}
}

func TestExclusiveScan(t *testing.T) {
	c := []int64{3, 0, 5, 2}
	total := ExclusiveScan(c)
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
	want := []int64{0, 3, 3, 8}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("scan = %v, want %v", c, want)
		}
	}
	if ExclusiveScan(nil) != 0 {
		t.Fatal("empty scan")
	}
}

func TestThreads(t *testing.T) {
	if Threads(5) != 5 {
		t.Fatal("explicit")
	}
	if Threads(0) < 1 {
		t.Fatal("default must be >= 1")
	}
	if Threads(-3) < 1 {
		t.Fatal("negative falls back")
	}
}
