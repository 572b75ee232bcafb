package semiring

// Ops is the operator form of a semiring: a value whose Add/Mul/Zero are
// methods rather than func fields. The named implementations below are
// zero-size comparable structs, one distinct type per operator, which buys
// two things the func-field form cannot provide:
//
//   - The kernels recognize the operator by its type and run generated
//     loops with Add and Mul spelled out as direct instructions
//     (repro/internal/core's loops_gen.go).
//   - Two independently constructed values of the same operator type compare
//     equal, so request coalescing can key on the operator type instead of
//     func-pointer identity.
//
// Custom semirings carry no Ops value; the kernels then run the same loop
// structure through the func fields, so results are bit-identical across
// the two paths.
type Ops[T any] interface {
	Add(T, T) T
	Mul(T, T) T
	Zero() T
}

// PlusTimesF64 is the operator form of Arithmetic: (+, ×) over float64.
type PlusTimesF64 struct{}

// Add returns x + y.
func (PlusTimesF64) Add(x, y float64) float64 { return x + y }

// Mul returns x * y.
func (PlusTimesF64) Mul(x, y float64) float64 { return x * y }

// Zero returns 0.
func (PlusTimesF64) Zero() float64 { return 0 }

// PlusTimesI64 is the operator form of ArithmeticInt: (+, ×) over int64.
type PlusTimesI64 struct{}

// Add returns x + y.
func (PlusTimesI64) Add(x, y int64) int64 { return x + y }

// Mul returns x * y.
func (PlusTimesI64) Mul(x, y int64) int64 { return x * y }

// Zero returns 0.
func (PlusTimesI64) Zero() int64 { return 0 }

// PlusPairI64 is the operator form of PlusPair: (+, pair) over int64.
type PlusPairI64 struct{}

// Add returns x + y.
func (PlusPairI64) Add(x, y int64) int64 { return x + y }

// Mul returns the constant 1 regardless of operands.
func (PlusPairI64) Mul(int64, int64) int64 { return 1 }

// Zero returns 0.
func (PlusPairI64) Zero() int64 { return 0 }

// PlusPairF64 is the operator form of PlusPairF: (+, pair) over float64.
type PlusPairF64 struct{}

// Add returns x + y.
func (PlusPairF64) Add(x, y float64) float64 { return x + y }

// Mul returns the constant 1 regardless of operands.
func (PlusPairF64) Mul(float64, float64) float64 { return 1 }

// Zero returns 0.
func (PlusPairF64) Zero() float64 { return 0 }

// OrAndBool is the operator form of Boolean: (∨, ∧) over bool.
type OrAndBool struct{}

// Add returns x || y.
func (OrAndBool) Add(x, y bool) bool { return x || y }

// Mul returns x && y.
func (OrAndBool) Mul(x, y bool) bool { return x && y }

// Zero returns false.
func (OrAndBool) Zero() bool { return false }

// MinPlusF64 is the operator form of MinPlus: tropical (min, +) over
// float64.
type MinPlusF64 struct{}

// Add returns min(x, y).
func (MinPlusF64) Add(x, y float64) float64 {
	if x < y {
		return x
	}
	return y
}

// Mul returns x + y.
func (MinPlusF64) Mul(x, y float64) float64 { return x + y }

// Zero returns +Inf.
func (MinPlusF64) Zero() float64 { return inf64() }

// PlusSecondF64 is the operator form of PlusSecond: (+, second) over
// float64.
type PlusSecondF64 struct{}

// Add returns x + y.
func (PlusSecondF64) Add(x, y float64) float64 { return x + y }

// Mul returns its second operand.
func (PlusSecondF64) Mul(_, y float64) float64 { return y }

// Zero returns 0.
func (PlusSecondF64) Zero() float64 { return 0 }

// PlusFirstF64 is the operator form of PlusFirst: (+, first) over float64.
type PlusFirstF64 struct{}

// Add returns x + y.
func (PlusFirstF64) Add(x, y float64) float64 { return x + y }

// Mul returns its first operand.
func (PlusFirstF64) Mul(x, _ float64) float64 { return x }

// Zero returns 0.
func (PlusFirstF64) Zero() float64 { return 0 }

// MaxTimesF64 is the operator form of MaxTimes: (max, ×) over float64.
type MaxTimesF64 struct{}

// Add returns max(x, y).
func (MaxTimesF64) Add(x, y float64) float64 {
	if x > y {
		return x
	}
	return y
}

// Mul returns x * y.
func (MaxTimesF64) Mul(x, y float64) float64 { return x * y }

// Zero returns -Inf.
func (MaxTimesF64) Zero() float64 { return -inf64() }
