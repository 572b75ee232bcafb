// Package masked is the public API of this repository: parallel masked
// sparse matrix-matrix products, C = M .* (A·B), after "Parallel Algorithms
// for Masked Sparse Matrix-Matrix Products" (Milaković, Selvitopi, Nisa,
// Budimlić, Buluç; ICPP 2022).
//
// A masked product computes only the output entries whose positions appear
// in a mask matrix M (or, complemented, only positions absent from M).
// Graph algorithms use it to avoid materializing products they will throw
// away: triangle counting masks L·L by L itself, BFS-style traversals mask
// frontier expansion by the complement of the visited set.
//
// # Sessions
//
// The unit of the API is the Session: a handle owning a plan cache, a
// thread budget, and pooled accumulator workspaces that every operation of
// the session shares. Operations take a context.Context, honored
// cooperatively mid-multiply, and are configured by descriptor options:
//
//	s := masked.NewSession(masked.WithThreads(8))
//	g := masked.RMAT(12, 16, 1)                     // a Graph500-style graph
//	l := masked.Tril(g)                             // strictly lower triangle
//	c, err := s.Multiply(ctx, l.Pattern(), l, l,    // C = L .* (L·L)
//	    masked.WithAccumulate(masked.PlusPair()))
//	triangles := masked.Sum(c)
//
// Iterative applications — BFS, BC, k-truss, anything that
// re-multiplies against a static graph — should run all their products on
// one session: plans are re-used instead of re-analyzed, and accumulator
// workspaces are recycled instead of reallocated per call.
//
// Choosing an algorithm: by default every operation routes through the
// adaptive planner, which applies the paper's §8 guidance as an explicit
// cost model — Inner for masks much sparser than the inputs, Heap/HeapDot
// for inputs much sparser than the mask, MSA/Hash for the
// comparable-density middle, and one-phase unless memory is tight. On row
// spaces with skewed local density (power-law graphs) the planner may emit
// a *mixed* plan that runs different variants on different row blocks;
// results are bit-identical regardless. WithVariant pins one of the 12
// fixed variants (6 algorithms × one/two phase) instead;
// Session.MultiplyAuto returns the executed Plan and Session.Explain
// previews it.
//
// Orthogonally to the variant, the planner also selects the row schedule:
// equal-cost spans when the per-row cost profile is skewed, equal-row
// chunks otherwise. Explain reports it. Complement is native to every
// kernel that supports it, so complemented masks never materialize an
// explicit complement pattern.
//
// The applications of the paper's evaluation are Session.TriangleCount,
// Session.KTruss and Session.BC. Session.BFS runs the traversal that §4
// traces masking to, and the SS:GB-style baselines run under the same
// descriptors via Session.SSDot and Session.SSSaxpy.
//
// # Serving concurrent requests
//
// Sessions are multi-tenant serving objects: Session.MultiplyBatch
// answers a batch of products concurrently (responses in request order),
// and concurrent Session.TryMultiply calls share the same admission. At most
// WithInflight requests run at once; each gets a worker share of the
// session thread budget proportional to its planner cost estimate (small
// queries one goroutine, heavy products the spare budget, released budget
// rebalanced to stragglers mid-request); and identical concurrent requests
// — same operands, mask mode and semiring — are computed once, sharing
// the immutable result (single-flight). The plan cache behind this is
// lock-striped and LRU-bounded (WithPlanCacheCapacity); Session.Stats
// exposes monotonic counters for dashboards. See PERFORMANCE.md for the
// tuning guide.
package masked

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/grgen"
	"repro/internal/matrix"
	"repro/internal/mmio"
	"repro/internal/planner"
	"repro/internal/semiring"
)

// Index is the 32-bit row/column index type.
type Index = matrix.Index

// Matrix is a sparse matrix in CSR format with float64 values.
type Matrix = matrix.CSR[float64]

// Pattern is a structure-only matrix view; masks are patterns.
type Pattern = matrix.Pattern

// COO is the triplet staging format accepted by FromCOO.
type COO = matrix.COO[float64]

// Semiring supplies the add/multiply pair the product is computed over.
type Semiring = semiring.Semiring[float64]

// Options configures a multiply.
type Options = core.Options

// Variant names one of the paper's 12 algorithm variants.
type Variant = core.Variant

// Algorithm families, re-exported from the core package.
const (
	MSA     = core.MSA
	Hash    = core.Hash
	MCA     = core.MCA
	Heap    = core.Heap
	HeapDot = core.HeapDot
	Inner   = core.Inner
)

// Phases, re-exported from the core package.
const (
	OnePhase = core.OnePhase
	TwoPhase = core.TwoPhase
)

// Semiring constructors.
var (
	// Arithmetic is the standard (+, ×) semiring.
	Arithmetic = semiring.Arithmetic
	// PlusPair is (+, pair): products are 1, so sums count intersections.
	PlusPair = semiring.PlusPairF
	// MinPlus is the tropical semiring for shortest paths.
	MinPlus = semiring.MinPlus
	// PlusSecond is (+, second): multiplication returns its B operand.
	PlusSecond = semiring.PlusSecond
)

// SemiringByName resolves a named float64 semiring — the vocabulary the
// wire protocol and the CLI use: "arithmetic" (the default, also the
// empty string), "plus-pair" / "plus-pair-f64", "min-plus",
// "plus-second", "plus-first", "max-times".
func SemiringByName(name string) (Semiring, error) {
	switch name {
	case "", "arithmetic":
		return Arithmetic(), nil
	case "plus-pair", "plus-pair-f64":
		return PlusPair(), nil
	case "min-plus":
		return MinPlus(), nil
	case "plus-second":
		return PlusSecond(), nil
	case "plus-first":
		return semiring.PlusFirst(), nil
	case "max-times":
		return semiring.MaxTimes(), nil
	}
	return Semiring{}, fmt.Errorf("masked: unknown semiring %q (want arithmetic, plus-pair, min-plus, plus-second, plus-first or max-times)", name)
}

// Plan is the planner's decision for one masked multiply: the variant (or
// per-row-block variants), the phase, and the statistics that drove the
// choice. Its Explain method renders a human-readable report.
type Plan = planner.Plan

// BlockStat reports what one row block of a plan's execution actually did.
type BlockStat = core.BlockStat

// CacheStats is a snapshot of a session plan cache's hit/miss/eviction
// counters and occupancy; see Stats.Cache.
type CacheStats = planner.CacheStats

// ExecStats is one observed execution of a plan — its measured kernel
// time, in total and per block — stamped on the plan copies MultiplyAuto
// returns; see planner.ExecStats.
type ExecStats = planner.ExecStats

// Variants returns all 12 (algorithm, phase) combinations the paper
// evaluates.
func Variants() []Variant { return core.AllVariants() }

// VariantByName resolves a paper label such as "Hash-2P".
func VariantByName(name string) (Variant, error) { return core.VariantByName(name) }

// Flops returns flops(A·B), the multiply count of the unmasked product.
func Flops(a, b *Matrix) int64 { return core.Flops(a, b, 0) }

// --- Construction and structural helpers ---

// FromCOO builds a CSR matrix from triplets, summing duplicates.
func FromCOO(c *COO) *Matrix {
	return matrix.NewCSRFromCOO(c, func(a, b float64) float64 { return a + b })
}

// NewEmpty returns an m-by-n matrix with no entries.
func NewEmpty(m, n Index) *Matrix { return matrix.NewEmptyCSR[float64](m, n) }

// Transpose returns Aᵀ.
func Transpose(a *Matrix) *Matrix { return matrix.Transpose(a) }

// Tril returns the strictly lower triangular part of a.
func Tril(a *Matrix) *Matrix { return matrix.Tril(a) }

// Triu returns the strictly upper triangular part of a.
func Triu(a *Matrix) *Matrix { return matrix.Triu(a) }

// Sum adds up all stored values.
func Sum(a *Matrix) float64 { return matrix.Sum(a) }

// ReadMatrixMarket loads a Matrix Market file (symmetric inputs expanded).
func ReadMatrixMarket(path string) (*Matrix, error) { return mmio.ReadFile(path) }

// WriteMatrixMarket stores a matrix in Matrix Market format.
func WriteMatrixMarket(path string, a *Matrix) error { return mmio.WriteFile(path, a) }

// --- Generators ---

// RMAT generates a symmetric Graph500-parameter R-MAT graph with 2^scale
// vertices and ~edgeFactor·2^scale undirected edges.
func RMAT(scale, edgeFactor int, seed uint64) *Matrix { return grgen.RMAT(scale, edgeFactor, seed) }

// ErdosRenyi generates a symmetric Erdős–Rényi graph with average degree
// deg.
func ErdosRenyi(n Index, deg float64, seed uint64) *Matrix {
	return grgen.ErdosRenyiSym(n, deg, seed)
}

// --- Application results (see the Session methods) ---

// TCResult reports a TriangleCount run.
type TCResult = apps.TCResult

// KTrussResult reports a KTruss run.
type KTrussResult = apps.KTrussResult

// BCResult reports a BetweennessCentrality run.
type BCResult = apps.BCResult

// BFSResult reports a direction-optimized BFS.
type BFSResult = apps.BFSResult
