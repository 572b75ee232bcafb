package parallel

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestWorkerPanicRethrown checks a panic on a worker goroutine surfaces on
// the calling goroutine as a WorkerPanic carrying the worker's stack, and
// that the surviving workers drain instead of hanging or crashing.
func TestWorkerPanicRethrown(t *testing.T) {
	defer func() {
		v := recover()
		wp, ok := v.(WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T %v, want WorkerPanic", v, v)
		}
		if wp.Value != "boom at 500" {
			t.Fatalf("panic value %v", wp.Value)
		}
		if !strings.Contains(wp.String(), "boom at 500") || !strings.Contains(wp.String(), "goroutine") {
			t.Fatalf("WorkerPanic string misses value or stack:\n%s", wp)
		}
	}()
	ForChunks(nil, 10_000, 4, 1, func(lo, hi int) {
		if lo == 500 {
			panic("boom at 500")
		}
	})
	t.Fatal("ForChunks returned normally past a panicking body")
}

// TestWorkerPanicPoisonsClaims checks that after one worker panics, the
// other workers stop claiming chunks quickly (the claim counter is
// poisoned), rather than running the full iteration space. The survivors
// wait for the panicking worker's signal before their first claim, so the
// outcome does not depend on when the scheduler first runs worker 0: the
// only window left is worker 0's short unwind from the signal to the
// poisoning store in its recover.
func TestWorkerPanicPoisonsClaims(t *testing.T) {
	var ran atomic.Int64
	panicking := make(chan struct{})
	func() {
		defer func() { recover() }()
		ForWorkers(nil, 1_000_000, 4, 1, func(id int, claim func() (int, int, bool)) {
			if id == 0 {
				close(panicking)
				panic("die early")
			}
			<-panicking
			for {
				if _, _, ok := claim(); !ok {
					return
				}
				ran.Add(1)
			}
		})
	}()
	if n := ran.Load(); n > 500_000 {
		t.Fatalf("survivors ran %d of 1000000 single-index chunks after poison", n)
	}
}

// TestWorkerPanicFaultPoint checks the parallel.worker.panic injection point
// fires on a worker goroutine of every loop and arrives as a WorkerPanic,
// with no goroutines left behind.
func TestWorkerPanicFaultPoint(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, loop := range loops {
		r := faultinject.New(1)
		r.Add(faultinject.Rule{Point: faultinject.PointWorkerPanic, Every: 1, Limit: 1})
		faultinject.Set(r)
		caught := func() (v any) {
			defer func() { v = recover() }()
			loop.run(nil, 4096, 4, func(lo, hi int) {})
			return nil
		}()
		faultinject.Set(nil)
		if wp, ok := caught.(WorkerPanic); !ok || !strings.Contains(wp.String(), faultinject.PointWorkerPanic) {
			t.Fatalf("%s: recovered %T %v, want injected WorkerPanic", loop.name, caught, caught)
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines leaked after worker panic: %d > %d", n, base)
	}
}

// TestExclusiveScanParallelWorkerPanic: the parallel scan's block passes
// run on the package's workers, so an injected worker panic reaches the
// caller as a WorkerPanic like any other pass.
func TestExclusiveScanParallelWorkerPanic(t *testing.T) {
	r := faultinject.New(1)
	r.Add(faultinject.Rule{Point: faultinject.PointWorkerPanic, Every: 1, Limit: 1})
	faultinject.Set(r)
	defer faultinject.Set(nil)
	caught := func() (v any) {
		defer func() { v = recover() }()
		ExclusiveScanParallel(make([]int64, 4*minScanBlock), 4)
		return nil
	}()
	if wp, ok := caught.(WorkerPanic); !ok || !strings.Contains(wp.String(), faultinject.PointWorkerPanic) {
		t.Fatalf("recovered %T %v, want injected WorkerPanic", caught, caught)
	}
}
