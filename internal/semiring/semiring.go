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

// fromOps builds a Semiring from its operator and the operator's add and
// multiply, so every caller of the func fields (Heap and HeapDot among
// them) computes with exactly the operator's own code. The constructors
// pass method values of the concrete operator type, such as
// PlusTimesF64{}.Add: a call through the func field is then one indirect
// call, where a method value of the Ops interface would make a second one
// through the interface's method table.
func fromOps[T any](name string, ops Ops[T], add, mul func(T, T) T) Semiring[T] {
	return Semiring[T]{Name: name, Add: add, Mul: mul, Zero: ops.Zero(), Ops: ops}
}

// Arithmetic is the standard (+, ×) semiring over float64.
func Arithmetic() Semiring[float64] {
	return fromOps("arithmetic", PlusTimesF64{}, PlusTimesF64{}.Add, PlusTimesF64{}.Mul)
}

// ArithmeticInt is the (+, ×) semiring over int64.
func ArithmeticInt() Semiring[int64] {
	return fromOps("arithmetic-int64", PlusTimesI64{}, PlusTimesI64{}.Add, PlusTimesI64{}.Mul)
}

// PlusPair is the (+, pair) semiring: multiplication yields the constant 1
// regardless of operands, so the product counts pattern intersections. This
// is the semiring of choice for triangle counting and k-truss support
// counting (each accumulated unit is one wedge closed by the masked edge).
func PlusPair() Semiring[int64] {
	return fromOps("plus-pair", PlusPairI64{}, PlusPairI64{}.Add, PlusPairI64{}.Mul)
}

// PlusPairF is PlusPair over float64 values, for callers whose matrices
// carry float64 payloads.
func PlusPairF() Semiring[float64] {
	return fromOps("plus-pair-f64", PlusPairF64{}, PlusPairF64{}.Add, PlusPairF64{}.Mul)
}

// Boolean is the (∨, ∧) semiring over bool: the product's pattern is
// reachability. Zero is false.
func Boolean() Semiring[bool] {
	return fromOps("boolean", OrAndBool{}, OrAndBool{}.Add, OrAndBool{}.Mul)
}

// MinPlus is the tropical (min, +) semiring over float64, used for shortest
// path relaxations. Zero is +Inf.
func MinPlus() Semiring[float64] {
	return fromOps("min-plus", MinPlusF64{}, MinPlusF64{}.Add, MinPlusF64{}.Mul)
}

// PlusSecond is the (+, second) semiring: multiplication returns the B
// operand. Betweenness centrality's forward phase uses it so that the number
// of shortest paths flows along frontier expansion.
func PlusSecond() Semiring[float64] {
	return fromOps("plus-second", PlusSecondF64{}, PlusSecondF64{}.Add, PlusSecondF64{}.Mul)
}

// PlusFirst is the (+, first) semiring: multiplication returns the A
// operand.
func PlusFirst() Semiring[float64] {
	return fromOps("plus-first", PlusFirstF64{}, PlusFirstF64{}.Add, PlusFirstF64{}.Mul)
}

// MaxTimes is the (max, ×) semiring over float64. Zero is -Inf.
func MaxTimes() Semiring[float64] {
	return fromOps("max-times", MaxTimesF64{}, MaxTimesF64{}.Add, MaxTimesF64{}.Mul)
}

func inf64() float64 { return math.Inf(1) }
