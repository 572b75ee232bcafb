package core

import (
	"fmt"
	mbits "math/bits"
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
//
// bits, when not empty, carries more of a square M and B as bitmaps,
// words = len(bits)/nrows(M) to a row: bit b of row v's bitmap,
// bits[v·words : (v+1)·words], stands for a column c_b, the same in every
// row, that M(v,:) and B(v,:) hold without listing it. The count then
// adds popcount(bits(i) & bits(k)) for every k of A(i,:) beside the
// marked walk of B(k,:), so it is sum(M' .* (A·B')) for the M' and B'
// that hold the listed and the bitmap columns. matrix.PairOperand's Bits,
// Tail and W are such operands: the triangle count is
// MaskedPairCount(Tail, W, Tail, Bits). Only the words from the first to
// the last non-zero word of bits(i) are read.
func MaskedPairCount(m, a, b *matrix.Pattern, bits []uint64, opt Options) (int64, error) {
	if m.NRows != a.NRows || m.NCols != b.NCols || a.NCols != b.NRows {
		return 0, fmt.Errorf("core: dimension mismatch M(%dx%d) A(%dx%d) B(%dx%d)",
			m.NRows, m.NCols, a.NRows, a.NCols, b.NRows, b.NCols)
	}
	if opt.Complement {
		return 0, fmt.Errorf("core: MaskedPairCount needs a non-complemented mask")
	}
	var words int
	if len(bits) > 0 {
		if m.NRows == 0 || m.NRows != b.NRows || len(bits)%int(m.NRows) != 0 {
			return 0, fmt.Errorf("core: %d bitmap words do not split into the %d rows of M and B(%dx%d)",
				len(bits), m.NRows, b.NRows, b.NCols)
		}
		words = len(bits) / int(m.NRows)
	}
	if err := opt.Err(); err != nil {
		return 0, err
	}
	if m.NNZ() == 0 && words == 0 {
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
				// bi is bits(i) from its first to its last non-zero word,
				// the only words whose AND can be non-zero; off is the
				// first one's place in a row.
				w0, w1 := i*words, (i+1)*words
				for w0 < w1 && bits[w0] == 0 {
					w0++
				}
				for w1 > w0 && bits[w1-1] == 0 {
					w1--
				}
				bi, off := bits[w0:w1], w0-i*words
				if len(arow) == 0 || len(mrow) == 0 && len(bi) == 0 {
					continue
				}
				for _, j := range mrow {
					state[j] = accum.Allowed
				}
				if len(mrow) > 0 {
					sum += pairWalk(state, arow, b.RowPtr, b.Col)
				}
				if len(bi) > 0 {
					sum += pairAnd(bi, arow, bits, words, off)
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

// pairWalk returns the marks that the B rows arow names hit: Σ over k in
// arow of Σ over j in B(k,:) of state[j], B having row pointers rowPtr
// and columns col. The walk and pairAnd stay out of the row loop: inlined
// there, their loop variables spilled to the stack, which made a count
// without bits about 10% slower than the loop it replaced.
//
//go:noinline
func pairWalk(state []accum.State, arow, rowPtr, col []Index) int64 {
	var sum int64
	for _, k := range arow {
		for _, j := range col[rowPtr[k]:rowPtr[k+1]] {
			sum += int64(state[j])
		}
	}
	return sum
}

// pairAnd returns Σ over k in arow of popcount(bi & bits(k)), bi being
// words off to off+len(bi) of a bitmap row and bits(k) the same words of
// row k of bits, words to a row.
//
//go:noinline
func pairAnd(bi []uint64, arow []Index, bits []uint64, words, off int) int64 {
	var sum int64
	for _, k := range arow {
		bk := bits[int(k)*words+off:][:len(bi)]
		for w, x := range bi {
			sum += int64(mbits.OnesCount64(x & bk[w]))
		}
	}
	return sum
}
