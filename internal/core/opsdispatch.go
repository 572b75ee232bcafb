package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Operator-path labels reported by OpsMode and surfaced through the
// planner's Plan.Ops / Explain output.
const (
	// OpsInlined marks the generated-loop path: the semiring carries one of
	// the named zero-size operator types, so Add/Mul are direct
	// instructions in the kernels' scatter and probe loops.
	OpsInlined = "inlined"
	// OpsFuncPtr marks the fallback path: a custom semiring computes through
	// the Semiring func fields (one indirect call per Add and per Mul).
	OpsFuncPtr = "funcptr"
)

// loopsFor returns the kernels' loop set for sr: the generated loops of
// the named operator sr.Ops carries (inlined = true), or funcLoops for a
// custom semiring. This switch is the one place that lists the named
// operators. Each case's loop set has the operator's own element type;
// the assertion back to opLoops[T] succeeds exactly when it matches T,
// which the Ops[T] field's type already guarantees.
func loopsFor[T any](sr semiring.Semiring[T]) (opLoops[T], bool) {
	var lp any
	switch any(sr.Ops).(type) {
	case semiring.PlusTimesF64:
		lp = opLoopsPlusTimes[float64]()
	case semiring.PlusTimesI64:
		lp = opLoopsPlusTimes[int64]()
	case semiring.PlusPairI64:
		lp = opLoopsPlusPair[int64]()
	case semiring.PlusPairF64:
		lp = opLoopsPlusPair[float64]()
	case semiring.OrAndBool:
		lp = opLoopsOrAnd[bool]()
	case semiring.MinPlusF64:
		lp = opLoopsMinPlus[float64]()
	case semiring.PlusSecondF64:
		lp = opLoopsPlusSecond[float64]()
	case semiring.PlusFirstF64:
		lp = opLoopsPlusFirst[float64]()
	case semiring.MaxTimesF64:
		lp = opLoopsMaxTimes[float64]()
	}
	if l, ok := lp.(opLoops[T]); ok {
		return l, true
	}
	return funcLoops(sr), false
}

// OpsMode reports which operator path the kernels take for sr: OpsInlined
// when sr.Ops is a recognized named operator type (every constructor in
// repro/internal/semiring), OpsFuncPtr for custom semirings built from bare
// func fields. Layered callers (planner, masked session, bench) use this to
// label executions.
func OpsMode[T any](sr semiring.Semiring[T]) string {
	if _, inlined := loopsFor(sr); inlined {
		return OpsInlined
	}
	return OpsFuncPtr
}

// algKernelFactory builds the per-worker kernel factory for one algorithm
// family. bcsc may be nil; it is only consulted for Inner, where a
// non-nil value avoids re-transposing B (blocked plans share one CSC
// across blocks). ws may be nil (no pooling).
//
// The MSA, Hash, MCA and Inner kernels run sr's loop set (loopsFor); the
// Heap families take none: their multiply-add sits under a heap pop, so
// there is no inner sweep to batch, and they call sr's func fields.
func algKernelFactory[T any](alg Algorithm, m *matrix.Pattern, a, b *matrix.CSR[T], bcsc *matrix.CSC[T], sr semiring.Semiring[T], complement bool, ws *Workspaces) (func() kernel[T], error) {
	switch alg {
	case Heap:
		return newHeapKernelFactory(m, a, b, sr, complement, 1, ws), nil
	case HeapDot:
		return newHeapKernelFactory(m, a, b, sr, complement, nInspectAll, ws), nil
	}
	lp, _ := loopsFor(sr)
	switch alg {
	case MSA:
		return newMSAKernelFactory(m, a, b, lp, complement, ws), nil
	case Hash:
		return newHashKernelFactory(m, a, b, lp, complement, ws), nil
	case MCA:
		return newMCAKernelFactory(m, a, b, lp, ws), nil
	case Inner:
		if bcsc == nil {
			bcsc = matrix.ToCSC(b)
		}
		return newInnerKernelFactory(m, a, bcsc, lp, complement, ws), nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %d", alg)
}
