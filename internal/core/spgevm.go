package core

import (
	"fmt"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Masked SpGEVM: v = m .* (uᵀB), the row-vector primitive the paper's §5
// presents its algorithms in before lifting them to SpGEMM. BFS steps call
// the direction-optimized form, which runs the push (MSA) or pull (Inner)
// row kernel once on the given vector.

// PushPullThreshold is the frontier-density ratio at which
// MaskedSpGEVMAuto switches from the push (MSA) to the pull (Inner)
// kernel, following the direction-optimization heuristic [5]: pulling wins
// when the expected push work, flops(uB), exceeds the candidate count times
// the average dot cost.
const PushPullThreshold = 8

// Direction identifies which kernel a direction-optimized step chose.
type Direction uint8

// Directions.
const (
	Push Direction = iota
	Pull
)

// String names the direction.
func (d Direction) String() string {
	if d == Pull {
		return "pull"
	}
	return "push"
}

// MaskedSpGEVMAuto is the direction-optimized masked vector-matrix product
// (§4's push/pull classification made adaptive): it estimates the push
// cost flops(uᵀB) and the pull cost (candidate positions × average row
// degree), then runs MSA (push) or the dot-product kernel (pull)
// accordingly. bcsc must be the CSC form of b; it is only touched on pull
// steps. Returns the result and the direction taken.
func MaskedSpGEVMAuto[T any](m *matrix.SparseVec[T], u *matrix.SparseVec[T], b *matrix.CSR[T], bcsc *matrix.CSC[T], sr semiring.Semiring[T], opt Options) (*matrix.SparseVec[T], Direction, error) {
	if u.N != b.NRows || m.N != b.NCols {
		return nil, Push, fmt.Errorf("core: SpGEVM dimension mismatch")
	}
	// Push cost: flops(uᵀB).
	var pushFlops int64
	for _, k := range u.Idx {
		pushFlops += int64(b.RowPtr[k+1] - b.RowPtr[k])
	}
	// Pull candidates: mask entries (normal) or their complement count.
	var candidates int64
	if opt.Complement {
		candidates = int64(m.N) - int64(len(m.Idx))
	} else {
		candidates = int64(len(m.Idx))
	}
	avgDeg := int64(1)
	if b.NCols > 0 {
		avgDeg += int64(b.NNZ()) / int64(b.NCols)
	}
	pullCost := candidates * avgDeg
	dir := Push
	if pullCost*PushPullThreshold < pushFlops {
		dir = Pull
	}
	mp := m.VecPattern()
	ur := u.AsRowMatrix()
	var out *matrix.CSR[T]
	var err error
	if dir == Pull {
		out, err = MaskedDotCSC(OnePhase, mp, ur, bcsc, sr, opt)
	} else {
		out, err = MaskedSpGEMM(Variant{Alg: MSA, Phase: OnePhase}, mp, ur, b, sr, opt)
	}
	if err != nil {
		return nil, dir, err
	}
	return matrix.RowToVec(out, 0), dir, nil
}
