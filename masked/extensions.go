package masked

import (
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/matrix"
)

// Extensions beyond the paper's evaluated kernels: the vector (SpGEVM)
// primitive, the direction-optimized variant, BFS, and masked similarity.

// Vector is a sparse float64 vector.
type Vector = matrix.SparseVec[float64]

// NewVector builds a sparse vector from index/value pairs (duplicates
// summed).
func NewVector(n Index, idx []Index, vals []float64) *Vector {
	return matrix.NewSparseVec(n, idx, vals, func(a, b float64) float64 { return a + b })
}

// VxM computes v = m .* (uᵀB): the masked sparse vector-matrix product the
// paper's §5 algorithms are stated in. alg selects the kernel family.
func VxM(alg core.Algorithm, m *Vector, u *Vector, b *Matrix, sr Semiring, opt Options) (*Vector, error) {
	return core.MaskedSpGEVM(alg, m, u, b, sr, opt)
}

// Direction reports whether a direction-optimized step pushed or pulled.
type Direction = core.Direction

// Push and Pull are the two traversal directions.
const (
	Push = core.Push
	Pull = core.Pull
)

// VxMAuto is the direction-optimized masked vector-matrix product: it
// estimates push vs pull cost per call and picks the cheaper kernel,
// returning the direction taken. bcsc must be B in CSC form (build once
// with ToCSC).
func VxMAuto(m *Vector, u *Vector, b *Matrix, bcsc *CSC, sr Semiring, opt Options) (*Vector, Direction, error) {
	return core.MaskedSpGEVMAuto(m, u, b, bcsc, sr, opt)
}

// CSC is the compressed-sparse-column form used by pull kernels.
type CSC = matrix.CSC[float64]

// ToCSC converts a matrix to CSC (for VxMAuto and repeated pull calls).
func ToCSC(a *Matrix) *CSC { return matrix.ToCSC(a) }

// BFSResult reports a direction-optimized BFS.
type BFSResult = apps.BFSResult

// MultiSourceBFSResult reports a batched BFS.
type MultiSourceBFSResult = apps.MultiSourceBFSResult

// SimilarityResult reports a masked similarity computation.
type SimilarityResult = apps.SimilarityResult

// MultiplyColumns computes C = M .* (A·B) with column-by-column (CSC-major)
// execution via the transpose identity Cᵀ = Mᵀ .* (Bᵀ·Aᵀ). Useful when the
// operands are column-major or the consumer wants column access; also a
// built-in cross-check of the row kernels.
func MultiplyColumns(v Variant, m *Pattern, a, b *Matrix, sr Semiring, opt Options) (*Matrix, error) {
	return core.MaskedSpGEMMColumns(v, m, a, b, sr, opt)
}

// MCLOptions configures Markov clustering.
type MCLOptions = apps.MCLOptions

// MCLResult reports a Markov clustering run.
type MCLResult = apps.MCLResult

// OpCounts aggregates abstract operation counts of an instrumented run.
type OpCounts = core.OpCounts

// CountOps runs the instrumented sequential implementation of the chosen
// algorithm, returning the product and its abstract operation counts — an
// executable form of the paper's §5 complexity analysis.
func CountOps(alg core.Algorithm, m *Pattern, a, b *Matrix, sr Semiring) (*Matrix, OpCounts, error) {
	return core.CountOps(alg, m, a, b, sr)
}
