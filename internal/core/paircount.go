package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/accum"
	"repro/internal/matrix"
)

// MaskedPairCount returns sum(M .* (A·B)) over the plus-pair semiring: the
// number of flops of A·B that land on an entry of the non-complemented
// mask M. It is the value int64(matrix.Sum(C)) has for C from any variant
// under semiring.PlusPairF, computed without building C: there is no
// symbolic pass, no value array and no gather, and integer sums keep it
// exact.
//
// Each row with flops marks its mask keys Allowed in the state array of a
// pooled MSA (opt.Workspaces), adds the state byte (Allowed = 1,
// NotAllowed = 0) for every flop into a register, then resets the keys,
// so every state is NotAllowed again when the count returns the workers'
// MSAs. Each worker keeps its own partial sum. Rows are scheduled like the drivers' passes
// (cost-balanced spans over opt.RowCosts when it is skewed), and a
// cancelled opt.Ctx returns its error. Rows must be duplicate-free; they
// need not be sorted.
func MaskedPairCount(m, a, b *matrix.Pattern, opt Options) (int64, error) {
	if m.NRows != a.NRows || m.NCols != b.NCols || a.NCols != b.NRows {
		return 0, fmt.Errorf("core: dimension mismatch M(%dx%d) A(%dx%d) B(%dx%d)",
			m.NRows, m.NCols, a.NRows, a.NCols, b.NRows, b.NCols)
	}
	if opt.Complement {
		return 0, fmt.Errorf("core: MaskedPairCount needs a non-complemented mask")
	}
	if err := opt.Err(); err != nil {
		return 0, err
	}
	if m.NNZ() == 0 {
		return 0, nil
	}
	var total atomic.Int64
	var accs passScratch[*accum.MSA[float64]]
	err := forRows(opt, m.NRows, nil, func(_ int, claim func() (int, int, bool)) {
		acc := accs.add(wsGetMSA[float64](opt.Workspaces, int(b.NCols)))
		state, _ := acc.Arrays()
		var sum int64
		for {
			lo, hi, ok := claim()
			if !ok {
				break
			}
			for i := lo; i < hi; i++ {
				mrow := m.Col[m.RowPtr[i]:m.RowPtr[i+1]]
				arow := a.Col[a.RowPtr[i]:a.RowPtr[i+1]]
				if len(mrow) == 0 || len(arow) == 0 {
					continue
				}
				for _, j := range mrow {
					state[j] = accum.Allowed
				}
				for _, k := range arow {
					for _, j := range b.Col[b.RowPtr[k]:b.RowPtr[k+1]] {
						sum += int64(state[j])
					}
				}
				for _, j := range mrow {
					state[j] = accum.NotAllowed
				}
			}
		}
		total.Add(sum)
	})
	for _, acc := range accs.all { // not reached if a row panics with its keys marked
		wsPutMSA(opt.Workspaces, acc)
	}
	if err != nil {
		return 0, err
	}
	return total.Load(), nil
}
