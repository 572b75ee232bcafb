package core

import (
	"fmt"
	"slices"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// Incremental (delta) execution — the operand view the blocked drivers
// read when operands change under an edge stream. The overlays
// (matrix.DeltaCSR) never mutate their base; each refresh takes the
// current operands as plain sorted CSR snapshots (the overlays' private
// snapshots, patched at the touched rows into recycled arrays), derives
// the mask-aware dirty-row frontier through a column index of A, extracts
// the frontier rows of the mask and A into small sub-operands (reused
// buffers), runs the ordinary masked product on them, and splices the
// recomputed rows over a copy of the previous output. Because every kernel
// in this repository produces bit-identical rows for identical (mask row,
// A row, B) inputs, the spliced output is bit-identical to a from-scratch
// multiply on the compacted operands — the property delta_equiv_test.go
// asserts. Under plus-pair, whose outputs are exact integer counts, a row
// reached only through B changes is not recomputed: its counts are patched
// by the net presence change of each changed B entry, which gives the same
// bits.

// DeltaOperand selects which operand of a DeltaProduct an update batch
// targets.
type DeltaOperand int

const (
	// DeltaAll applies a batch to every distinct overlay of the product —
	// the graph-stream mode, where M, A and B are views of one evolving
	// graph.
	DeltaAll DeltaOperand = iota
	// DeltaM targets the mask overlay only.
	DeltaM
	// DeltaA targets the A overlay only.
	DeltaA
	// DeltaB targets the B overlay only.
	DeltaB
)

// DeltaProduct tracks one incrementally maintained masked product
// C = M .* (A·B) over delta-CSR overlays. M, A and B may alias the same
// overlay (the graph workloads use one graph for all three). All content
// mutations must flow through Apply; mutating an overlay behind the
// product's back desynchronizes the dirty-row tracking. When built with a
// plus-pair semiring it recomputes only the changed rows of M and A and
// patches the counts of the rows B changes reach (see Refresh). Not safe
// for concurrent use; callers (masked.Session) serialize.
type DeltaProduct[T any] struct {
	m, a, b *matrix.DeltaCSR[T]
	// complement records that the product's mask is complemented
	// (C = ¬M .* (A·B)); the frontier rule needs it.
	complement bool
	// c is the last full output (nil before the first Refresh).
	c *matrix.CSR[T]
	// amRows lists the rows of M or A whose content changed since the
	// last refresh, and amMark flags them. bRows lists the changed rows k
	// of B (columns of A), and bCols[k] holds the columns J_k their
	// updates named, sorted and duplicate-free; it is empty for a row not
	// in bRows, and keeps its storage between refreshes. On the count
	// path bWas[k][x] records whether B(k, bCols[k][x]) was present at
	// the last refresh, read before the first update of that entry.
	amRows []Index
	amMark []bool
	bRows  []Index
	bCols  [][]Index
	bWas   [][]bool
	// bump is non-nil on the count path (a plus-pair semiring): it adds a
	// count delta to an output value and reports whether the result is
	// non-zero, that is, whether the entry stays.
	bump func(v T, d int) (T, bool)
	// at is the transposed pattern of A (row k lists the rows i with
	// A(i,k) != 0), built from A's snapshot at the first refresh with B
	// changes, and atBase is A's base at that build. The inserts into A
	// since then form one list per column k: atHead[k] is the newest (-1
	// for none), and insert e has row atRow[e] and the next older insert
	// into its column atNext[e]. Together they cover every current entry
	// of A; entries deleted since the build linger and are dropped by a
	// lookup in A's current row. A new base drops them all, which bounds
	// the lingering entries by one merge threshold.
	at                    *matrix.Pattern
	atBase                *matrix.CSR[T]
	atHead, atNext, atRow []Index
	// mark flags the rows already in the frontier being derived; it is
	// all false between derivations.
	mark []bool
	// On the count path, seen[i] == epoch marks a row already visited for
	// the changed row k of B being walked (the column index can list a
	// row twice: a deleted entry lingers beside its re-insert). patch
	// holds one key per (row i, column j, ±1) count change of the rows
	// reached only through B, derived afresh by every frontier pass, and
	// deltas the net presence changes of the k being walked (empty until
	// its first admitted row).
	seen   []uint32
	epoch  uint32
	patch  []uint64
	deltas []int8
	// On the count path, recomputed is the part of the frontier the
	// multiply callback recomputes, and repl the recomputed and patched
	// rows merged for the splice; both reuse their storage.
	recomputed []Index
	repl       matrix.CSR[T]
	// inFlight is the frontier of the sub-product being computed, nil
	// outside Refresh and during a full product.
	inFlight []Index
	// asub and msub are the frontier sub-operands, rebuilt in place by
	// every incremental refresh.
	asub *matrix.CSR[T]
	msub *matrix.Pattern
}

// NewDeltaProduct tracks C = M .* (A·B), with an uncomplemented mask, over
// the given overlays (which may alias each other). The first Refresh
// computes the full product. It knows no semiring, so every refresh
// recomputes its whole frontier.
func NewDeltaProduct[T any](m, a, b *matrix.DeltaCSR[T]) *DeltaProduct[T] {
	return NewDeltaProductComplement(m, a, b, false, semiring.Semiring[T]{})
}

// NewDeltaProductComplement is NewDeltaProduct tracking C = ¬M .* (A·B)
// when complement is set. complement and sr must match the descriptor
// every Refresh multiplies with: when sr's operator is plus-pair
// (semiring.PlusPairF64 or PlusPairI64), Refresh patches the counts of
// the rows reached only through B changes instead of recomputing them.
// Any other semiring, or the zero value, keeps the recompute path.
func NewDeltaProductComplement[T any](m, a, b *matrix.DeltaCSR[T], complement bool, sr semiring.Semiring[T]) *DeltaProduct[T] {
	mr, _ := m.Dims()
	ar, _ := a.Dims()
	br, _ := b.Dims()
	p := &DeltaProduct[T]{
		m: m, a: a, b: b,
		complement: complement,
		amMark:     make([]bool, max(mr, ar)),
		bCols:      make([][]Index, br),
		bump:       countBump[T](sr),
	}
	if p.bump != nil {
		p.bWas = make([][]bool, br)
	}
	return p
}

// countBump returns the count-patch step of a plus-pair semiring, whose
// output values are exact integer counts (nil for any other semiring).
func countBump[T any](sr semiring.Semiring[T]) func(T, int) (T, bool) {
	var f any
	switch any(sr.Ops).(type) {
	case semiring.PlusPairF64:
		f = func(v float64, d int) (float64, bool) { v += float64(d); return v, v != 0 }
	case semiring.PlusPairI64:
		f = func(v int64, d int) (int64, bool) { v += int64(d); return v, v != 0 }
	}
	bump, _ := f.(func(T, int) (T, bool))
	return bump
}

// Overlays returns the product's distinct overlays (deduplicated by
// identity, in M, A, B order).
func (p *DeltaProduct[T]) Overlays() []*matrix.DeltaCSR[T] {
	out := []*matrix.DeltaCSR[T]{p.m}
	if p.a != p.m {
		out = append(out, p.a)
	}
	if p.b != p.m && p.b != p.a {
		out = append(out, p.b)
	}
	return out
}

// targets resolves which distinct overlays an operand selector names.
func (p *DeltaProduct[T]) targets(op DeltaOperand) ([]*matrix.DeltaCSR[T], error) {
	switch op {
	case DeltaAll:
		return p.Overlays(), nil
	case DeltaM:
		return []*matrix.DeltaCSR[T]{p.m}, nil
	case DeltaA:
		return []*matrix.DeltaCSR[T]{p.a}, nil
	case DeltaB:
		return []*matrix.DeltaCSR[T]{p.b}, nil
	}
	return nil, fmt.Errorf("core: unknown delta operand %d", op)
}

// Apply applies one batch of edge updates to the selected operand's
// overlay(s) and accumulates the touched rows into the dirty frontier:
// the row of an M or A update, and the row and column of a B update.
// The batch is validated against every target overlay first, so a
// rejected batch (out-of-range index) mutates nothing. Aliased overlays
// receive the batch once but dirty both roles they play. The B entries
// are noted before the batch lands, so the count path can read their
// presence at the last refresh.
func (p *DeltaProduct[T]) Apply(op DeltaOperand, batch []matrix.Update[T]) error {
	targets, err := p.targets(op)
	if err != nil {
		return err
	}
	for _, d := range targets {
		nr, nc := d.Dims()
		for k, u := range batch {
			if u.Row < 0 || u.Row >= nr || u.Col < 0 || u.Col >= nc {
				return fmt.Errorf("core: delta update %d: index (%d, %d) out of range %dx%d",
					k, u.Row, u.Col, nr, nc)
			}
		}
	}
	if slices.Contains(targets, p.b) {
		p.noteB(batch)
	}
	for _, d := range targets {
		touched, err := d.ApplyBatch(batch)
		if err != nil {
			// Unreachable after the pre-validation above; surface it anyway.
			return err
		}
		if d == p.m || d == p.a {
			for _, i := range touched {
				if !p.amMark[i] {
					p.amMark[i] = true
					p.amRows = append(p.amRows, i)
				}
			}
		}
		if d == p.a {
			p.indexInserts(batch)
		}
	}
	return nil
}

// noteB adds the entries a batch about to land on B names to the changed
// columns of their rows. On the count path it also records, at the first
// update of an entry since the last refresh, whether B stored it then.
func (p *DeltaProduct[T]) noteB(batch []matrix.Update[T]) {
	for _, u := range batch {
		cols := p.bCols[u.Row]
		if len(cols) == 0 {
			p.bRows = append(p.bRows, u.Row)
		}
		if x, found := slices.BinarySearch(cols, u.Col); !found {
			p.bCols[u.Row] = slices.Insert(cols, x, u.Col)
			if p.bump != nil {
				p.bWas[u.Row] = slices.Insert(p.bWas[u.Row], x, p.b.Has(u.Row, u.Col))
			}
		}
	}
}

// Compact folds the pending logs of every overlay into fresh bases. The
// matrix content — and therefore the next Refresh's output — is unchanged;
// only storage identity moves.
func (p *DeltaProduct[T]) Compact() {
	for _, d := range p.Overlays() {
		d.Compact()
	}
}

// Output returns the last refreshed output (nil before the first Refresh).
// Callers must not mutate it.
func (p *DeltaProduct[T]) Output() *matrix.CSR[T] { return p.c }

// Dirty reports the number of accumulated dirty rows (M/A rows plus B
// rows) awaiting the next Refresh.
func (p *DeltaProduct[T]) Dirty() int { return len(p.amRows) + len(p.bRows) }

// indexInserts adds the inserts of a batch just applied to A to their
// columns' insert lists, so the column index keeps covering A.
func (p *DeltaProduct[T]) indexInserts(batch []matrix.Update[T]) {
	if p.at == nil {
		return
	}
	for _, u := range batch {
		if !u.Delete {
			p.atNext = append(p.atNext, p.atHead[u.Col])
			p.atHead[u.Col] = Index(len(p.atRow))
			p.atRow = append(p.atRow, u.Row)
		}
	}
}

// frontier derives the output rows the pending batches require Refresh to
// renew: the changed rows of M and A (amRows), plus every other row i
// that has some k in A(i,:) with a changed column j in J_k = bCols[k]
// that the mask admits, where admits means (j ∈ M(i,:)) != complement. No
// other row can change: an admitted C(i,j) is a sum over k in A(i,:)
// order whose terms change only with B(k,j). m, a and b are the current
// mask, A and B. Each changed k visits only the rows of its column of A,
// read from the column index, so the cost is O(Σ |A(:,k)|) over the
// changed k plus a binary search of M(i,:) per changed column and visited
// row, and of A(i,:) per admitted row, not O(nnz(A)). The frontier comes
// out ascending. On the count path it also derives p.patch afresh, so a
// retried refresh never applies a change twice: for each (i, k) pair once
// and i outside amRows, one key per changed column j that the mask row
// admits and whose presence in B(k,:) changed since the last refresh.
func (p *DeltaProduct[T]) frontier(m, a, b *matrix.Pattern) []Index {
	if p.mark == nil {
		p.mark = make([]bool, a.NRows)
	}
	p.patch = p.patch[:0]
	frontier := make([]Index, 0, len(p.amRows))
	for _, i := range p.amRows {
		p.mark[i] = true
		frontier = append(frontier, i)
	}
	if len(p.bRows) > 0 {
		if p.at == nil || p.a.Base() != p.atBase {
			// First use, or A was compacted (by a batch, by the product or
			// directly): index the current A afresh.
			p.at, p.atBase = matrix.TransposePattern(a), p.a.Base()
			if p.atHead == nil {
				p.atHead = make([]Index, a.NCols)
			}
			for k := range p.atHead {
				p.atHead[k] = -1
			}
			p.atNext, p.atRow = p.atNext[:0], p.atRow[:0]
		}
		if p.bump != nil && p.seen == nil {
			p.seen = make([]uint32, a.NRows)
		}
		for _, k := range p.bRows {
			cols := p.bCols[k]
			var visit func(i Index)
			if p.bump == nil {
				// The mask test rejects most rows, so the check that A(i,k)
				// was not deleted since it was indexed comes last.
				visit = func(i Index) {
					if p.mark[i] || !admitsChange(m.Row(i), cols, p.complement) {
						return
					}
					if _, ok := slices.BinarySearch(a.Row(i), k); ok {
						p.mark[i] = true
						frontier = append(frontier, i)
					}
				}
			} else {
				if p.epoch++; p.epoch == 0 {
					clear(p.seen)
					p.epoch = 1
				}
				p.deltas = p.deltas[:0]
				visit = func(i Index) {
					if p.countVisit(m, a, b, i, k) && !p.mark[i] {
						p.mark[i] = true
						frontier = append(frontier, i)
					}
				}
			}
			for _, i := range p.at.Row(k) {
				visit(i)
			}
			for e := p.atHead[k]; e >= 0; e = p.atNext[e] {
				visit(p.atRow[e])
			}
		}
	}
	for _, i := range frontier {
		p.mark[i] = false
	}
	slices.Sort(frontier)
	return frontier
}

// countVisit is the count path's visit of row i for the changed row k of
// B: it reports whether row i is in the frontier through k (the mask row
// admits some changed column j of row k, and A(i,k) != 0), and appends
// the count changes of its admitted columns whose presence changed. A row
// of amRows, or one already visited for this k, adds nothing. The first
// row admitted for k reads the presence changes of row k of B, b.
func (p *DeltaProduct[T]) countVisit(m, a, b *matrix.Pattern, i, k Index) bool {
	if p.amMark[i] || p.seen[i] == p.epoch {
		return false
	}
	p.seen[i] = p.epoch
	mRow, cols := m.Row(i), p.bCols[k]
	if !admitsChange(mRow, cols, p.complement) {
		return false
	}
	if _, ok := slices.BinarySearch(a.Row(i), k); !ok {
		return false
	}
	if len(p.deltas) == 0 {
		p.countDeltas(k, b.Row(k))
	}
	for x, j := range cols {
		if d := p.deltas[x]; d != 0 {
			if _, inMask := slices.BinarySearch(mRow, j); inMask != p.complement {
				p.patch = append(p.patch, patchKey(i, j, d))
			}
		}
	}
	return true
}

// countDeltas appends to the empty p.deltas the net presence change of
// each entry (k, bCols[k][x]) since the last refresh: +1, -1 or 0. bRow is
// row k of the current B.
func (p *DeltaProduct[T]) countDeltas(k Index, bRow []Index) {
	for x, j := range p.bCols[k] {
		_, now := slices.BinarySearch(bRow, j)
		was := p.bWas[k][x]
		var d int8
		if now && !was {
			d = 1
		} else if was && !now {
			d = -1
		}
		p.deltas = append(p.deltas, d)
	}
}

// patchKey packs one count change of output entry (i, j) so that sorting
// the keys groups them by row, then column: the change is +1 when the low
// bit is set and -1 otherwise.
func patchKey(i, j Index, d int8) uint64 {
	key := uint64(uint32(i))<<32 | uint64(uint32(j))<<1
	if d > 0 {
		key |= 1
	}
	return key
}

// patchRows merges, in frontier order, the recomputed rows of csub (the
// changed M/A rows of the frontier, in order) and the patched ones (every
// other frontier row: its previous output row with the summed changes of
// p.patch applied, an entry dropped at count 0 and inserted when it
// appears) into p.repl, whose arrays it reuses, and returns it.
func (p *DeltaProduct[T]) patchRows(frontier []Index, csub *matrix.CSR[T]) *matrix.CSR[T] {
	slices.Sort(p.patch)
	out := &p.repl
	out.NRows, out.NCols = Index(len(frontier)), p.c.NCols
	out.RowPtr = append(out.RowPtr[:0], 0)
	out.Col, out.Val = out.Col[:0], out.Val[:0]
	var zero T
	e, r := 0, Index(0) // next patch key, next row of csub
	for _, i := range frontier {
		if p.amMark[i] {
			cols, vals := csub.Row(r)
			r++
			out.Col, out.Val = append(out.Col, cols...), append(out.Val, vals...)
			out.RowPtr = append(out.RowPtr, Index(len(out.Col)))
			continue
		}
		cols, vals := p.c.Row(i)
		x := 0
		for e < len(p.patch) && Index(p.patch[e]>>32) == i {
			key, d := p.patch[e], 0
			for ; e < len(p.patch) && p.patch[e]>>1 == key>>1; e++ {
				d += 2*int(p.patch[e]&1) - 1
			}
			j := Index(uint32(key) >> 1)
			for x < len(cols) && cols[x] < j {
				out.Col, out.Val = append(out.Col, cols[x]), append(out.Val, vals[x])
				x++
			}
			v := zero
			if x < len(cols) && cols[x] == j {
				v = vals[x]
				x++
			}
			if v, keep := p.bump(v, d); keep {
				out.Col, out.Val = append(out.Col, j), append(out.Val, v)
			}
		}
		out.Col, out.Val = append(out.Col, cols[x:]...), append(out.Val, vals[x:]...)
		out.RowPtr = append(out.RowPtr, Index(len(out.Col)))
	}
	return out
}

// admitsChange reports whether the mask row admits some changed column.
func admitsChange(mRow, changed []Index, complement bool) bool {
	for _, j := range changed {
		if _, inMask := slices.BinarySearch(mRow, j); inMask != complement {
			return true
		}
	}
	return false
}

// DeltaMult is the multiply callback Refresh recomputes frontier rows
// with: it computes msub .* (asub · b) where msub and asub hold only the
// recomputed frontier rows (b is the full current B);
// DeltaProduct.Frontier names them. That is the whole frontier, except on
// a plus-pair product, where it is the frontier's changed rows of M and A
// and Refresh patches the rest. On the first refresh the operands are the
// overlays' fresh Current snapshots, which the callback may keep (a plan
// cache keys on them). On later refreshes msub, asub and b live in
// recycled arrays that later refreshes overwrite, so the callback must not
// keep them or hand them to anything that keys on array identity.
// masked.Session supplies its planner path; the apps layer supplies an
// Engine.
type DeltaMult[T any] func(msub *matrix.Pattern, asub, b *matrix.CSR[T]) (*matrix.CSR[T], error)

// Refresh brings the output up to date with the overlays' current content:
// the first call computes the full product on the overlays' Current
// snapshots, later calls renew only the dirty-row frontier and splice it
// into a fresh copy of the previous output. Off the count path every
// frontier row is recomputed through mult. On a plus-pair product only
// the changed rows of M and A are; every other frontier row is reached
// only through B changes, has an unchanged mask row and A row, and so
// differs from its previous output only at the changed columns j of each
// k in A(i,:), by the net presence change of B(k,j). Refresh adds those
// changes to the previous counts, dropping an entry at 0 and inserting one
// that appears. Counts are integers below 2⁵³, exact in float64, so the
// patched row is bit-identical to a recompute. The later calls read the
// operands through matrix.RecycledSnapshot and build the sub-operands and
// the merged replacement rows in reused buffers, so apart from the output
// they allocate about what the batch and its frontier need, not the
// graph. It returns the full current output and the renewed rows (every
// row on the first call, empty when already clean; patched rows count,
// including those whose net change is 0) — the renewed-row list is what
// lets iterative consumers bound their own scans. Neither is ever
// overwritten later. On error the dirty frontier is retained, so a failed
// or panicked refresh can be retried; the count changes are derived
// afresh from it.
func (p *DeltaProduct[T]) Refresh(mult DeltaMult[T]) (*matrix.CSR[T], []Index, error) {
	defer func() { p.inFlight = nil }()
	if p.c == nil {
		curM := p.m.Current().Pattern()
		curA, curB := p.a.Current(), p.b.Current()
		c, err := mult(curM, curA, curB)
		if err != nil {
			return nil, nil, err
		}
		p.c = c
		p.resetDirty()
		all := make([]Index, curM.NRows)
		for i := range all {
			all[i] = Index(i)
		}
		return c, all, nil
	}
	if p.Dirty() == 0 {
		return p.c, nil, nil
	}
	curM := matrix.RecycledSnapshot(p.m).Pattern()
	curA, curB := matrix.RecycledSnapshot(p.a), matrix.RecycledSnapshot(p.b)
	frontier := p.frontier(curM, curA.Pattern(), curB.Pattern())
	if len(frontier) == 0 {
		p.resetDirty()
		return p.c, nil, nil
	}
	rows := frontier
	if p.bump != nil {
		p.recomputed = p.recomputed[:0]
		for _, i := range frontier {
			if p.amMark[i] {
				p.recomputed = append(p.recomputed, i)
			}
		}
		rows = p.recomputed
	}
	var csub *matrix.CSR[T]
	if len(rows) > 0 {
		p.asub = matrix.ExtractRows(p.asub, curA, rows)
		msub := p.asub.Pattern()
		if p.m != p.a {
			p.msub = matrix.ExtractRowsPattern(p.msub, curM, rows)
			msub = p.msub
		}
		p.inFlight = rows
		var err error
		if csub, err = mult(msub, p.asub, curB); err != nil {
			return nil, nil, err
		}
	}
	if len(rows) < len(frontier) {
		csub = p.patchRows(frontier, csub)
	}
	p.c = matrix.SpliceRows(p.c, frontier, csub)
	p.resetDirty()
	return p.c, frontier, nil
}

// Frontier returns the output rows the DeltaMult call in flight
// recomputes, ascending: row r of its sub-operands is row Frontier()[r] of
// the product. On a plus-pair product these are the frontier's changed
// rows of M and A only, since Refresh patches the others. It is nil
// outside Refresh and during a full product, whose operands hold every
// row. Callers must not mutate it.
func (p *DeltaProduct[T]) Frontier() []Index { return p.inFlight }

func (p *DeltaProduct[T]) resetDirty() {
	for _, i := range p.amRows {
		p.amMark[i] = false
	}
	p.amRows = p.amRows[:0]
	for _, k := range p.bRows {
		p.bCols[k] = p.bCols[k][:0]
		if p.bump != nil {
			p.bWas[k] = p.bWas[k][:0]
		}
	}
	p.bRows = p.bRows[:0]
}
