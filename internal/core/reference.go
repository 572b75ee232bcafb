package core

import (
	"slices"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Reference computes C = M .* (A·B) (or the complement form) with a simple
// sequential map-based Gustavson multiply followed by mask filtering. It is
// the oracle the kernel tests validate against and intentionally shares no
// code with the optimized kernels. Output rows are sorted.
func Reference[T any](m *matrix.Pattern, a, b *matrix.CSR[T], sr semiring.Semiring[T], complement bool) *matrix.CSR[T] {
	out := &matrix.CSR[T]{NRows: m.NRows, NCols: m.NCols, RowPtr: make([]Index, m.NRows+1)}
	row := make(map[Index]T)
	for i := Index(0); i < m.NRows; i++ {
		clear(row)
		for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
			k := a.Col[kk]
			av := a.Val[kk]
			for p := b.RowPtr[k]; p < b.RowPtr[k+1]; p++ {
				j := b.Col[p]
				v := sr.Mul(av, b.Val[p])
				if old, ok := row[j]; ok {
					row[j] = sr.Add(old, v)
				} else {
					row[j] = v
				}
			}
		}
		// Filter by mask row.
		inMask := make(map[Index]bool, m.RowNNZ(i))
		for _, j := range m.Row(i) {
			inMask[j] = true
		}
		keep := make([]Index, 0, len(row))
		for j := range row {
			if inMask[j] != complement {
				keep = append(keep, j)
			}
		}
		slices.Sort(keep)
		for _, j := range keep {
			out.Col = append(out.Col, j)
			out.Val = append(out.Val, row[j])
		}
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out
}
