package core

import (
	"fmt"
	"slices"

	"repro/internal/matrix"
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
// asserts.

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
// product's back desynchronizes the dirty-row tracking. Not safe for
// concurrent use; callers (masked.Session) serialize.
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
	// in bRows, and keeps its storage between refreshes.
	amRows []Index
	amMark []bool
	bRows  []Index
	bCols  [][]Index
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
// computes the full product.
func NewDeltaProduct[T any](m, a, b *matrix.DeltaCSR[T]) *DeltaProduct[T] {
	return NewDeltaProductComplement(m, a, b, false)
}

// NewDeltaProductComplement is NewDeltaProduct tracking C = ¬M .* (A·B)
// when complement is set. complement must match the descriptor every
// Refresh multiplies with.
func NewDeltaProductComplement[T any](m, a, b *matrix.DeltaCSR[T], complement bool) *DeltaProduct[T] {
	mr, _ := m.Dims()
	ar, _ := a.Dims()
	br, _ := b.Dims()
	return &DeltaProduct[T]{
		m: m, a: a, b: b,
		complement: complement,
		amMark:     make([]bool, max(mr, ar)),
		bCols:      make([][]Index, br),
	}
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
// receive the batch once but dirty both roles they play.
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
		if d == p.b {
			for _, u := range batch {
				cols := p.bCols[u.Row]
				if len(cols) == 0 {
					p.bRows = append(p.bRows, u.Row)
				}
				if k, found := slices.BinarySearch(cols, u.Col); !found {
					p.bCols[u.Row] = slices.Insert(cols, k, u.Col)
				}
			}
		}
	}
	return nil
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
// recompute: the changed rows of M and A (amRows), plus every other row i
// that has some k in A(i,:) with a changed column j in J_k = bCols[k]
// that the mask admits, where admits means (j ∈ M(i,:)) != complement. No
// other row can change: an admitted C(i,j) is a sum over k in A(i,:)
// order whose terms change only with B(k,j). m and a are the current mask
// and A. Each changed k visits only the rows of its column of A, read from
// the column index, so the cost is O(Σ |A(:,k)|) over the changed k plus
// a binary search of M(i,:) per changed column and visited row, and of
// A(i,:) per admitted row, not O(nnz(A)). The frontier comes out
// ascending.
func (p *DeltaProduct[T]) frontier(m, a *matrix.Pattern) []Index {
	if p.mark == nil {
		p.mark = make([]bool, a.NRows)
	}
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
		for _, k := range p.bRows {
			cols := p.bCols[k]
			// The mask test rejects most rows, so the check that A(i,k)
			// was not deleted since it was indexed comes last.
			visit := func(i Index) {
				if p.mark[i] || !admitsChange(m.Row(i), cols, p.complement) {
					return
				}
				if _, ok := slices.BinarySearch(a.Row(i), k); ok {
					p.mark[i] = true
					frontier = append(frontier, i)
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
// frontier rows (b is the full current B); DeltaProduct.Frontier names
// them. On the first refresh the operands are the overlays' fresh Current
// snapshots, which the callback may keep (a plan cache keys on them). On
// later refreshes msub, asub and b live in recycled arrays that later
// refreshes overwrite, so the callback must not keep them or hand them to
// anything that keys on array identity. masked.Session supplies its
// planner path; the apps layer supplies an Engine.
type DeltaMult[T any] func(msub *matrix.Pattern, asub, b *matrix.CSR[T]) (*matrix.CSR[T], error)

// Refresh brings the output up to date with the overlays' current content:
// the first call computes the full product on the overlays' Current
// snapshots, later calls recompute only the dirty-row frontier and splice
// it into a fresh copy of the previous output. The later calls read the
// operands through matrix.RecycledSnapshot and build the sub-operands in
// reused buffers, so apart from the output they allocate about what the
// batch and its frontier need, not the graph. It returns the full current
// output and the recomputed rows (every row on the first call, empty when
// already clean) — the recomputed-row list is what lets iterative
// consumers bound their own scans. Neither is ever overwritten later. On
// error the dirty frontier is retained, so a failed or panicked refresh
// can be retried.
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
	frontier := p.frontier(curM, curA.Pattern())
	if len(frontier) == 0 {
		p.resetDirty()
		return p.c, nil, nil
	}
	p.asub = matrix.ExtractRows(p.asub, curA, frontier)
	msub := p.asub.Pattern()
	if p.m != p.a {
		p.msub = matrix.ExtractRowsPattern(p.msub, curM, frontier)
		msub = p.msub
	}
	p.inFlight = frontier
	csub, err := mult(msub, p.asub, curB)
	if err != nil {
		return nil, nil, err
	}
	p.c = matrix.SpliceRows(p.c, frontier, csub)
	p.resetDirty()
	return p.c, frontier, nil
}

// Frontier returns the output rows the DeltaMult call in flight
// recomputes, ascending: row r of its sub-operands is row Frontier()[r] of
// the product. It is nil outside Refresh and during a full product, whose
// operands hold every row. Callers must not mutate it.
func (p *DeltaProduct[T]) Frontier() []Index { return p.inFlight }

func (p *DeltaProduct[T]) resetDirty() {
	for _, i := range p.amRows {
		p.amMark[i] = false
	}
	p.amRows = p.amRows[:0]
	for _, k := range p.bRows {
		p.bCols[k] = p.bCols[k][:0]
	}
	p.bRows = p.bRows[:0]
}
