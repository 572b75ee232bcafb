// Package semiring defines the algebraic structure the masked SpGEMM kernels
// compute over, following the GraphBLAS formulation the paper builds on
// (§2): a semiring supplies the "multiply" used to combine A_ik with B_kj
// and the "add" used to accumulate partial products with the same output
// position. The paper presents its algorithms on the arithmetic semiring for
// clarity but the applications use others (triangle counting and k-truss use
// plus-pair, betweenness centrality uses plus-times on path counts).
package semiring

import "math"

// Semiring bundles the add and multiply monoids over value type T. Zero is
// the additive identity. Kernels never test values against Zero — sparsity
// is structural, matching the GraphBLAS convention — but reductions and
// tests use it.
type Semiring[T any] struct {
	// Name identifies the semiring in logs and benchmark tables.
	Name string
	// Add accumulates two partial results. Must be associative.
	Add func(T, T) T
	// Mul combines one entry of A with one entry of B.
	Mul func(T, T) T
	// Zero is the additive identity.
	Zero T
	// Ops, when non-nil, is the comparable operator form of the semiring.
	// For a recognized Ops type the kernels run generated loops with
	// Add/Mul inlined; when Ops is nil (a custom semiring built from func
	// fields) they call Add/Mul through the func pointers. The named
	// constructors in this package always set Ops.
	Ops Ops[T]
}

// fromOps builds a Semiring whose func fields are the operator's method
// values, so every caller of the func fields (Heap and HeapDot among them)
// computes with exactly the operator's own code.
func fromOps[T any](name string, ops Ops[T]) Semiring[T] {
	return Semiring[T]{Name: name, Add: ops.Add, Mul: ops.Mul, Zero: ops.Zero(), Ops: ops}
}

// Arithmetic is the standard (+, ×) semiring over float64.
func Arithmetic() Semiring[float64] {
	return fromOps[float64]("arithmetic", PlusTimesF64{})
}

// ArithmeticInt is the (+, ×) semiring over int64.
func ArithmeticInt() Semiring[int64] {
	return fromOps[int64]("arithmetic-int64", PlusTimesI64{})
}

// PlusPair is the (+, pair) semiring: multiplication yields the constant 1
// regardless of operands, so the product counts pattern intersections. This
// is the semiring of choice for triangle counting and k-truss support
// counting (each accumulated unit is one wedge closed by the masked edge).
func PlusPair() Semiring[int64] {
	return fromOps[int64]("plus-pair", PlusPairI64{})
}

// PlusPairF is PlusPair over float64 values, for callers whose matrices
// carry float64 payloads.
func PlusPairF() Semiring[float64] {
	return fromOps[float64]("plus-pair-f64", PlusPairF64{})
}

// Boolean is the (∨, ∧) semiring over bool: the product's pattern is
// reachability. Zero is false.
func Boolean() Semiring[bool] {
	return fromOps[bool]("boolean", OrAndBool{})
}

// MinPlus is the tropical (min, +) semiring over float64, used for shortest
// path relaxations. Zero is +Inf.
func MinPlus() Semiring[float64] {
	return fromOps[float64]("min-plus", MinPlusF64{})
}

// PlusSecond is the (+, second) semiring: multiplication returns the B
// operand. Betweenness centrality's forward phase uses it so that the number
// of shortest paths flows along frontier expansion.
func PlusSecond() Semiring[float64] {
	return fromOps[float64]("plus-second", PlusSecondF64{})
}

// PlusFirst is the (+, first) semiring: multiplication returns the A
// operand.
func PlusFirst() Semiring[float64] {
	return fromOps[float64]("plus-first", PlusFirstF64{})
}

// MaxTimes is the (max, ×) semiring over float64. Zero is -Inf.
func MaxTimes() Semiring[float64] {
	return fromOps[float64]("max-times", MaxTimesF64{})
}

func inf64() float64 { return math.Inf(1) }
