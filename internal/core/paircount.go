package core

import (
	"fmt"
	mbits "math/bits"
	"sync/atomic"

	"repro/internal/accum"
	"repro/internal/matrix"
)

// pairAVX512 is set once, from the CPU's features, when MaskedPairCount
// ANDs hub bitmaps with pairAndAVX512 instead of pairAnd's Go loop.
var pairAVX512 = hasAVX512PopCount()

// maxPairWords is the most 64-bit words a MaskedPairCount bitmap row
// holds: 512 bits, one cache line and one ZMM register.
const maxPairWords = 8

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
// words = len(bits)/nrows(M) ≤ 8 to a row: bit b of row v's bitmap,
// bits[v·words : (v+1)·words], stands for a column c_b, the same in every
// row, that M(v,:) and B(v,:) hold without listing it. The count then
// adds popcount(bits(i) & bits(k)) for every k of A(i,:) beside the
// marked walk of B(k,:), so it is sum(M' .* (A·B')) for the M' and B'
// that hold the listed and the bitmap columns. On amd64 CPUs with
// AVX-512F and AVX512_VPOPCNTDQ that is one 512-bit AND, popcount and add
// per k, each load masked to the row's words; elsewhere a Go loop over
// the words. The CPU's features alone choose.
//
// walk holds one index per row of A and ends the part of each row the
// marked walk visits: it walks a.Col[a.RowPtr[i]:walk[i]], and every k
// past that must have an empty B(k,:) (its bitmap part is still ANDed).
// a.RowPtr[1:] walks whole rows. An end outside its row panics. A row
// with an empty A(i,:) reads neither bits nor B, and one with an empty
// M(i,:) walks nothing.
//
// list, when not nil, holds each row's walk laid out in order: row i is
// B(k,:) for each k of a.Col[a.RowPtr[i]:walk[i]], concatenated, and may
// be empty where M(i,:) is. The count then sums the marks over that one
// slice instead of loading B's row pointers and walking B(k,:) per k;
// the walk ends still say which rows walk anything. The caller vouches
// for its contents: a list that is not that concatenation gives a wrong
// count, not an error.
//
// matrix.PairOperand's Bits, Tail, W, WalkEnd and Walks are such
// operands: the triangle count is MaskedPairCount(Tail, W, Tail, Bits,
// WalkEnd, Walks), Walks being nil when the operand keeps none.
func MaskedPairCount(m, a, b *matrix.Pattern, bits []uint64, walk []Index, list *matrix.Pattern, opt Options) (int64, error) {
	if m.NRows != a.NRows || m.NCols != b.NCols || a.NCols != b.NRows {
		return 0, fmt.Errorf("core: dimension mismatch M(%dx%d) A(%dx%d) B(%dx%d)",
			m.NRows, m.NCols, a.NRows, a.NCols, b.NRows, b.NCols)
	}
	if opt.Complement {
		return 0, fmt.Errorf("core: MaskedPairCount needs a non-complemented mask")
	}
	var words int
	if len(bits) > 0 {
		if m.NRows == 0 || m.NRows != b.NRows || len(bits)%int(m.NRows) != 0 || len(bits)/int(m.NRows) > maxPairWords {
			return 0, fmt.Errorf("core: %d bitmap words do not split into the %d rows of M and B(%dx%d), at most %d words a row",
				len(bits), m.NRows, b.NRows, b.NCols, maxPairWords)
		}
		words = len(bits) / int(m.NRows)
	}
	if len(walk) != int(a.NRows) {
		return 0, fmt.Errorf("core: %d walk ends for the %d rows of A", len(walk), a.NRows)
	}
	if list != nil && (list.NRows != a.NRows || list.NCols != b.NCols || len(list.RowPtr) != int(a.NRows)+1) {
		return 0, fmt.Errorf("core: a %dx%d walk list with %d row pointers for A(%dx%d) and B(%dx%d)",
			list.NRows, list.NCols, len(list.RowPtr), a.NRows, a.NCols, b.NRows, b.NCols)
	}
	if err := opt.Err(); err != nil {
		return 0, err
	}
	if m.NNZ() == 0 && words == 0 {
		return 0, nil
	}
	simd := pairAVX512
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
				a0, a1 := a.RowPtr[i], a.RowPtr[i+1]
				if a0 == a1 {
					continue
				}
				arow := a.Col[a0:a1:a1]
				if words > 0 {
					sum += hubAnd(simd, bits, words, i, arow)
				}
				arow = arow[:walk[i]-a0]
				mrow := m.Col[m.RowPtr[i]:m.RowPtr[i+1]]
				if len(mrow) == 0 || len(arow) == 0 {
					continue
				}
				for _, j := range mrow {
					state[j] = accum.Allowed
				}
				if list != nil {
					sum += pairSum(state, list.Col[list.RowPtr[i]:list.RowPtr[i+1]])
				} else {
					sum += pairWalk(state, arow, b.RowPtr, b.Col)
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

// setPairAVX512 sets whether MaskedPairCount ANDs on pairAndAVX512 and
// returns the previous setting. Only tests call it, to run the portable
// loop on a host with AVX-512 and then to restore what it returned: those
// of core directly, those of the packages core imports through
// go:linkname, so that renaming it fails their link.
func setPairAVX512(on bool) (old bool) {
	old, pairAVX512 = pairAVX512, on
	return old
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

// pairSum returns Σ over j in cols of state[j]: pairWalk over a walk
// list.
//
//go:noinline
func pairSum(state []accum.State, cols []Index) int64 {
	var sum int64
	for _, j := range cols {
		sum += int64(state[j])
	}
	return sum
}

// hubAnd returns Σ over k in arow of popcount(bits(i) & bits(k)), rows of
// words words, from pairAndAVX512 when simd is set and from pairAnd
// otherwise or when a row lies outside bits, so that the bounds check of
// pairAnd's Go loop reports it.
func hubAnd(simd bool, bits []uint64, words, i int, arow []Index) int64 {
	if simd {
		if sum, ok := pairAndAVX512(bits, words, i, arow); ok {
			return sum
		}
	}
	return pairAnd(bits, words, i, arow)
}

// pairAnd is hubAnd's portable loop.
//
//go:noinline
func pairAnd(bits []uint64, words, i int, arow []Index) int64 {
	bi := bits[i*words : (i+1)*words]
	var sum int64
	for _, k := range arow {
		bk := bits[int(k)*words:][:len(bi)]
		for w, x := range bi {
			sum += int64(mbits.OnesCount64(x & bk[w]))
		}
	}
	return sum
}
