package core

import (
	"repro/internal/accum"
	"repro/internal/matrix"
)

//go:generate go run genloops.go

// opLoops bundles the monomorphized numeric scatter/probe loops for one
// (element type, operator) pair. The Go compiler's gcshape stenciling keeps
// interface-method calls on an operator *type parameter* indirect (they go
// through the instantiation dictionary, even when the shape is unique to one
// operator), so the generic kernels' ops.Mul/ops.Add never inline. Plain
// arithmetic on a numeric-constrained type parameter, by contrast, compiles
// to direct machine instructions. loops_gen.go therefore instantiates each
// hot loop once per operator with the Add/Mul expressions spelled out, and
// the kernels call the loop once per row — one amortized indirect call per
// row instead of two per flop.
//
// A zero opLoops (all fields zero) makes the kernels run their generic ops
// loops instead: that is the funcptr fallback path for custom semirings.
// The generated loops replicate the generic loops' operation order exactly,
// so the two paths are bit-identical; the plus-pair msaCount and
// innerProbe loops depart from that structure, but their integer-valued
// counts are exact, so their output is too.
//
// The Heap/HeapDot kernels have no loop entry here: their multiply-add sits
// under a heap pop, so there is no inner sweep to batch, and the operator
// cost is dominated by the heap's log factor.
type opLoops[T any] struct {
	msa    func(acc *accum.MSA[T], a, b *matrix.CSR[T], i Index)
	msaRun func(acc *accum.MSA[T], a, b *matrix.CSR[T], i, lo, hi Index, comp bool)
	msaC   func(acc *accum.MSA[T], a, b *matrix.CSR[T], i Index)
	// msaCount, set instead of msa for plus-pair, runs a whole
	// non-complemented numeric row as a branch-free counting scatter (see
	// accum.MSA's counting mode) and returns the row's output length.
	msaCount func(acc *accum.MSA[T], a, b *matrix.CSR[T], i Index, mrow, col []Index, val []T) Index

	hash      func(acc *accum.Hash[T], a, b *matrix.CSR[T], i Index)
	hashProbe func(acc *accum.Hash[T], p *maskProbe, a, b *matrix.CSR[T], i Index, comp bool)
	hashC     func(acc *accum.Hash[T], a, b *matrix.CSR[T], i Index)

	mcaProbe func(acc *accum.MCA[T], p *maskProbe, a, b *matrix.CSR[T], i Index)
	mcaMerge func(acc *accum.MCA[T], a, b *matrix.CSR[T], i Index, mrow []Index)

	// innerProbe is the Inner kernel's dot product of B's column against
	// A's row scattered into an MSA (see innerKernel). innerNoAVal marks an
	// operator whose Mul ignores A's value: the row scatter then writes
	// states only.
	innerProbe  func(state []accum.State, value []T, amax Index, bIdx []Index, bVal []T) (T, bool)
	innerNoAVal bool
}

// loopNumeric is the element-type constraint of the generated numeric
// loops: arithmetic and comparisons on T compile to direct instructions.
type loopNumeric interface{ ~int64 | ~float64 }

// loopBool is the element-type constraint of the generated boolean loops.
type loopBool interface{ ~bool }

// addMin is the min monoid used by the generated MinPlus loops. It must
// match semiring.MinPlusF64.Add exactly (NOT the min builtin, whose NaN
// handling differs) so the monomorphized path stays bit-identical to the
// funcptr path.
func addMin[T loopNumeric](x, y T) T {
	if x < y {
		return x
	}
	return y
}

// addMax is the max monoid used by the generated MaxTimes loops; it must
// match semiring.MaxTimesF64.Add exactly (see addMin).
func addMax[T loopNumeric](x, y T) T {
	if x > y {
		return x
	}
	return y
}
