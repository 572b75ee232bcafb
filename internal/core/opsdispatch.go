package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Operator-path labels reported by OpsMode and surfaced through the
// planner's Plan.Ops / Explain output.
const (
	// OpsInlined marks the monomorphized kernel path: the semiring carries
	// one of the named zero-size operator types, so Add/Mul inline into the
	// accumulator loops.
	OpsInlined = "inlined"
	// OpsFuncPtr marks the fallback path: a custom semiring computes through
	// the Semiring func fields (one indirect call per Add and per Mul).
	OpsFuncPtr = "funcptr"
)

// funcOps wraps a semiring's func fields as a semiring.Ops value, the
// fallback operator for custom semirings. The generic kernels instantiated
// with it are the same code the named operators run, so the two paths are
// bit-identical.
func funcOps[T any](sr semiring.Semiring[T]) semiring.FuncOps[T] {
	return semiring.FuncOps[T]{AddFn: sr.Add, MulFn: sr.Mul, ZeroV: sr.Zero}
}

// opsInlined reports whether ops is one of the named operator types the
// specialized kernel instantiations cover.
func opsInlined(ops any) bool {
	switch ops.(type) {
	case semiring.PlusTimesF64, semiring.PlusTimesI64,
		semiring.PlusPairI64, semiring.PlusPairF64,
		semiring.OrAndBool, semiring.MinPlusF64,
		semiring.PlusSecondF64, semiring.PlusFirstF64,
		semiring.MaxTimesF64:
		return true
	}
	return false
}

// OpsMode reports which operator path the kernels take for sr: OpsInlined
// when sr.Ops is a recognized named operator type (every constructor in
// repro/internal/semiring), OpsFuncPtr for custom semirings built from bare
// func fields. Layered callers (planner, masked session, bench) use this to
// label executions.
func OpsMode[T any](sr semiring.Semiring[T]) string {
	if opsInlined(sr.Ops) {
		return OpsInlined
	}
	return OpsFuncPtr
}

// opsKernelFactory builds the per-worker kernel factory for one algorithm
// family with a concrete operator type O and the matching monomorphized
// loop set lp (zero for the funcptr fallback). The Heap families take no
// loop set: their multiply-add sits under a heap pop, so there is no inner
// sweep to monomorphize (see opLoops). bcsc may be nil; Inner then
// transposes b.
func opsKernelFactory[T any, O semiring.Ops[T]](alg Algorithm, m *matrix.Pattern, a, b *matrix.CSR[T], bcsc *matrix.CSC[T], ops O, lp opLoops[T], complement bool, ws *Workspaces) (func() kernel[T], error) {
	switch alg {
	case MSA:
		return newMSAKernelFactory(m, a, b, ops, lp, complement, ws), nil
	case Hash:
		return newHashKernelFactory(m, a, b, ops, lp, complement, ws), nil
	case MCA:
		return newMCAKernelFactory(m, a, b, ops, lp, ws), nil
	case Heap:
		return newHeapKernelFactory(m, a, b, ops, complement, 1, ws), nil
	case HeapDot:
		return newHeapKernelFactory(m, a, b, ops, complement, nInspectAll, ws), nil
	case Inner:
		if bcsc == nil {
			bcsc = matrix.ToCSC(b)
		}
		return newInnerKernelFactory(m, a, bcsc, ops, lp, complement, ws), nil
	}
	return nil, fmt.Errorf("core: unknown algorithm %d", alg)
}

// specializedFactory returns the kernel factory monomorphized for the named
// operator type carried by sr.Ops, or nil when sr carries no recognized
// operator (a custom semiring) — the caller then falls back to the FuncOps
// instantiation. One case per named operator: each case binds a concrete
// (element, operator) type pair and the matching generated loop set from
// loops_gen.go, whose Add/Mul are spelled out as direct expressions — the
// form the compiler actually monomorphizes (see opLoops).
func specializedFactory[T any](alg Algorithm, m *matrix.Pattern, a, b *matrix.CSR[T], bcsc *matrix.CSC[T], sr semiring.Semiring[T], complement bool, ws *Workspaces) func() kernel[T] {
	switch ops := any(sr.Ops).(type) {
	case semiring.PlusTimesF64:
		return monoFactory[float64](alg, m, a, b, bcsc, ops, opLoopsPlusTimes[float64](), complement, ws)
	case semiring.PlusTimesI64:
		return monoFactory[int64](alg, m, a, b, bcsc, ops, opLoopsPlusTimes[int64](), complement, ws)
	case semiring.PlusPairI64:
		return monoFactory[int64](alg, m, a, b, bcsc, ops, opLoopsPlusPair[int64](), complement, ws)
	case semiring.PlusPairF64:
		return monoFactory[float64](alg, m, a, b, bcsc, ops, opLoopsPlusPair[float64](), complement, ws)
	case semiring.OrAndBool:
		return monoFactory[bool](alg, m, a, b, bcsc, ops, opLoopsOrAnd[bool](), complement, ws)
	case semiring.MinPlusF64:
		return monoFactory[float64](alg, m, a, b, bcsc, ops, opLoopsMinPlus[float64](), complement, ws)
	case semiring.PlusSecondF64:
		return monoFactory[float64](alg, m, a, b, bcsc, ops, opLoopsPlusSecond[float64](), complement, ws)
	case semiring.PlusFirstF64:
		return monoFactory[float64](alg, m, a, b, bcsc, ops, opLoopsPlusFirst[float64](), complement, ws)
	case semiring.MaxTimesF64:
		return monoFactory[float64](alg, m, a, b, bcsc, ops, opLoopsMaxTimes[float64](), complement, ws)
	}
	return nil
}

// monoFactory instantiates the generic kernels for concrete element type U
// and operator type O, then adapts the factory back to the caller's type
// parameter T. The casts are dynamic and succeed exactly when T and U are
// the same type — guaranteed already by the Ops[T] field's type, but
// checked anyway so a mismatch degrades to the funcptr fallback instead of
// panicking.
func monoFactory[U any, O semiring.Ops[U], T any](alg Algorithm, m *matrix.Pattern, a, b *matrix.CSR[T], bcsc *matrix.CSC[T], ops O, lp opLoops[U], complement bool, ws *Workspaces) func() kernel[T] {
	au, ok := any(a).(*matrix.CSR[U])
	if !ok {
		return nil
	}
	bu, ok := any(b).(*matrix.CSR[U])
	if !ok {
		return nil
	}
	var bcscU *matrix.CSC[U]
	if bcsc != nil {
		if bcscU, ok = any(bcsc).(*matrix.CSC[U]); !ok {
			return nil
		}
	}
	f, err := opsKernelFactory(alg, m, au, bu, bcscU, ops, lp, complement, ws)
	if err != nil {
		return nil
	}
	return func() kernel[T] {
		// U == T at runtime (the operand casts above proved it), so the
		// kernel[U] the specialized factory builds is a kernel[T].
		return any(f()).(kernel[T])
	}
}
