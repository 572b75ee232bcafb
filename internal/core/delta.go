package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/faultinject"
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
// asserts. Under plus-pair, whose outputs are exact integer counts, only
// the first product runs a kernel: every later frontier row is its
// previous output row plus count changes, C' − C = ΔA·B' + A_old·ΔB at
// the columns the mask admits before and now, with the columns it newly
// admits counted in full. Per-overlay note tables record each changed
// entry's presence at the last refresh and now, and integer counts below
// 2⁵³ add exactly, so the patched rows carry the same bits.

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
// plus-pair semiring it computes only its first product and patches every
// later frontier row by count changes (see Refresh). Not safe for
// concurrent use; callers (masked.Session) serialize.
type DeltaProduct[T any] struct {
	m, a, b *matrix.DeltaCSR[T]
	// complement records that the product's mask is complemented
	// (C = ¬M .* (A·B)); the frontier rule needs it.
	complement bool
	// c is the last full output (nil before the first Refresh).
	c *matrix.CSR[T]
	// amRows lists the rows of M or A whose content changed since the
	// last refresh, and amMark flags them.
	amRows []Index
	amMark []bool
	// bNote records the changed entries of B: its rows are the changed
	// rows k of B (columns of A), and the columns of its ents[k] are the
	// columns J_k their updates named. On the count path mNote and aNote
	// record those of M and A (nil otherwise). Aliased overlays share one
	// table, and notes lists the distinct tables. was receives the prior
	// presence ApplyBatch reports; it keeps its storage.
	bNote, aNote, mNote *noteTable
	notes               []*noteTable
	was                 []bool
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
	// row twice: a deleted entry lingers beside its re-insert), inCol[i] ==
	// epoch a row markCols marked for it, and patch holds one key per (row
	// i, column j, ±1) count change of the rows outside amRows, derived
	// afresh by every frontier pass.
	seen, inCol []uint32
	epoch       uint32
	patch       []uint64
	// On the count path, state holds one byte per output column for the
	// changed row being patched: its mask presence at the last refresh
	// and now (noteWas, noteNow) and whether acc holds a count change for
	// it (stAcc); kinds maps the two mask bits to the column's kind under
	// the product's mask. acc[j] is the summed count change of column j, and
	// accCols lists the columns holding one. All are zero, and accCols
	// empty, between rows. repl holds the patched rows for the splice.
	// All reuse their storage.
	state   []uint8
	kinds   [4]uint8
	acc     []int32
	accCols []Index
	repl    matrix.CSR[T]
	// inFlight is the frontier of the sub-product being computed, nil
	// outside Refresh and during a full product.
	inFlight []Index
	// asub and msub are the frontier sub-operands, rebuilt in place by
	// every recomputing refresh.
	asub *matrix.CSR[T]
	msub *matrix.Pattern
}

// noteTable records the entries of one overlay that the batches since the
// last refresh named: rows lists the rows holding any, in first-note
// order, and in flags them; ents[r] holds the named entries of row r,
// sorted by column and duplicate-free (empty for a row not in rows; it
// keeps its storage between refreshes).
type noteTable struct {
	rows []Index
	in   []bool
	ents [][]noteEnt
}

// noteEnt is one noted entry: its column, and in st its presence at the
// last refresh (noteWas) and now (noteNow).
type noteEnt struct {
	col Index
	st  uint8
}

const (
	noteWas uint8 = 1 << iota
	noteNow
)

func newNoteTable(nrows Index) *noteTable {
	return &noteTable{in: make([]bool, nrows), ents: make([][]noteEnt, nrows)}
}

// note records in t a batch that just landed on t's overlay; was[x] is
// whether the entry batch[x] names was stored just before that update.
// The first update of an entry since the last refresh fixes its noteWas
// bit, and every update sets its noteNow bit: an insert leaves the entry
// stored and a delete leaves it absent.
func note[T any](t *noteTable, batch []matrix.Update[T], was []bool) {
	for x, u := range batch {
		if !t.in[u.Row] {
			t.in[u.Row] = true
			t.rows = append(t.rows, u.Row)
		}
		ents := t.ents[u.Row]
		y, found := slices.BinarySearchFunc(ents, u.Col, func(e noteEnt, j Index) int { return cmp.Compare(e.col, j) })
		if !found {
			e := noteEnt{col: u.Col}
			if was[x] {
				e.st = noteWas
			}
			ents = slices.Insert(ents, y, e)
			t.ents[u.Row] = ents
		}
		if u.Delete {
			ents[y].st &^= noteNow
		} else {
			ents[y].st |= noteNow
		}
	}
}

// noteDelta is the net presence change of a noted entry with state st:
// +1, -1 or 0.
func noteDelta(st uint8) int { return int(st&noteNow>>1) - int(st&noteWas) }

// reset empties t, keeping its storage.
func (t *noteTable) reset() {
	for _, r := range t.rows {
		t.in[r] = false
		t.ents[r] = t.ents[r][:0]
	}
	t.rows = t.rows[:0]
}

// stAcc is the state bit of an output column of the changed row being
// patched that holds a count change; the low bits are the mask entry's
// noteWas and noteNow bits. Those give the column's kind under the
// product's mask: colOut is not admitted now, so its entry is dropped;
// colKeep is admitted at the last refresh and now, so count changes patch
// its entry; colNew is admitted now only, so it is counted in full.
const stAcc = noteNow << 1

const (
	colOut uint8 = iota
	colKeep
	colNew
)

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
// (semiring.PlusPairF64 or PlusPairI64), only the first Refresh
// multiplies, and every later one patches the counts of its frontier
// rows. Any other semiring, or the zero value, keeps the recompute path.
func NewDeltaProductComplement[T any](m, a, b *matrix.DeltaCSR[T], complement bool, sr semiring.Semiring[T]) *DeltaProduct[T] {
	mr, _ := m.Dims()
	ar, _ := a.Dims()
	br, _ := b.Dims()
	p := &DeltaProduct[T]{
		m: m, a: a, b: b,
		complement: complement,
		amMark:     make([]bool, max(mr, ar)),
		bNote:      newNoteTable(br),
		bump:       countBump[T](sr),
	}
	p.notes = []*noteTable{p.bNote}
	if p.bump != nil {
		p.aNote = p.bNote
		if a != b {
			p.aNote = newNoteTable(ar)
			p.notes = append(p.notes, p.aNote)
		}
		switch m {
		case a:
			p.mNote = p.aNote
		case b:
			p.mNote = p.bNote
		default:
			p.mNote = newNoteTable(mr)
			p.notes = append(p.notes, p.mNote)
		}
		for st := range p.kinds {
			now := (uint8(st)&noteNow != 0) != complement
			old := (uint8(st)&noteWas != 0) != complement
			switch {
			case now && old:
				p.kinds[st] = colKeep
			case now:
				p.kinds[st] = colNew
			}
		}
	}
	return p
}

// noteOf returns the note table of overlay d, nil when no role d plays is
// noted.
func (p *DeltaProduct[T]) noteOf(d *matrix.DeltaCSR[T]) *noteTable {
	switch d {
	case p.b:
		return p.bNote
	case p.a:
		return p.aNote
	}
	return p.mNote
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
// receive the batch once but dirty both roles they play. Each noted
// overlay's table records the entries the batch names, with the presence
// ApplyBatch reports for them.
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
	p.was = slices.Grow(p.was[:0], len(batch))[:len(batch)]
	for _, d := range targets {
		touched, err := d.ApplyBatch(batch, p.was)
		if err != nil {
			// Unreachable after the pre-validation above; surface it anyway.
			return err
		}
		if t := p.noteOf(d); t != nil {
			note(t, batch, p.was)
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
func (p *DeltaProduct[T]) Dirty() int { return len(p.amRows) + len(p.bNote.rows) }

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
// that has some k in A(i,:) with a changed column j in J_k (B's noted
// columns of row k) that the mask admits, where admits means
// (j ∈ M(i,:)) != complement. No other row can change: an admitted C(i,j)
// is a sum over k in A(i,:) order whose terms change only with B(k,j). m
// and a are the current mask and A. Each changed k visits only the rows
// of its column of A, read from the column index, so the cost is
// O(Σ |A(:,k)|) over the changed k plus a binary search of M(i,:) per
// changed column and visited row, and of A(i,:) per admitted row, not
// O(nnz(A)); on the count path with M and A one overlay and a plain
// mask, markCols replaces most mask row searches by one load. The
// frontier comes out ascending. On the count path it also derives
// p.patch afresh, so a retried refresh never applies a change twice: for
// each (i, k) pair once and i outside amRows, one key per changed column
// j that the mask row admits and whose presence in B(k,:) changed since
// the last refresh.
func (p *DeltaProduct[T]) frontier(m, a *matrix.Pattern) []Index {
	if p.mark == nil {
		p.mark = make([]bool, a.NRows)
	}
	p.patch = p.patch[:0]
	frontier := make([]Index, 0, len(p.amRows))
	for _, i := range p.amRows {
		p.mark[i] = true
		frontier = append(frontier, i)
	}
	if len(p.bNote.rows) > 0 {
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
			p.seen, p.inCol = make([]uint32, a.NRows), make([]uint32, a.NRows)
		}
		for _, k := range p.bNote.rows {
			ents := p.bNote.ents[k]
			var visit func(i Index)
			if p.bump == nil {
				// The mask test rejects most rows, so the check that A(i,k)
				// was not deleted since it was indexed comes last.
				visit = func(i Index) {
					if p.mark[i] || !admitsChange(m.Row(i), ents, p.complement) {
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
					clear(p.inCol)
					p.epoch = 1
				}
				filter := p.m == p.a && !p.complement && p.markCols(k, ents)
				visit = func(i Index) {
					if p.countVisit(m, a, i, k, filter) && !p.mark[i] {
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

// markCols marks, when M is A, every row the column index lists under a
// changed column j of row k of B: inCol[i] == epoch. The index covers
// every current entry of A, so an unmarked row's mask row holds none of
// them; a marked one may have lost its entry since and is checked as
// before. Hub columns can list far more rows than column k, so it marks
// nothing and reports false when they list more than colMarkRatio times
// the rows of A(:,k).
func (p *DeltaProduct[T]) markCols(k Index, ents []noteEnt) bool {
	n := 0
	for _, e := range ents {
		n += len(p.at.Row(e.col))
	}
	if n > colMarkRatio*len(p.at.Row(k)) {
		return false
	}
	for _, e := range ents {
		for _, i := range p.at.Row(e.col) {
			p.inCol[i] = p.epoch
		}
		for x := p.atHead[e.col]; x >= 0; x = p.atNext[x] {
			p.inCol[p.atRow[x]] = p.epoch
		}
	}
	return true
}

// colMarkRatio bounds markCols' marks per row of A(:,k) it saves a mask
// row search for, so hub columns keep the walk within a constant factor
// of O(|A(:,k)|). The value is not critical: on stream-rmat every ratio
// from 8 to unbounded gives the same frontier time within noise.
const colMarkRatio = 32

// countVisit is the count path's visit of row i for the changed row k of
// B: it reports whether row i is in the frontier through k (the mask row
// admits some changed column j of row k, and A(i,k) != 0), and appends
// the count changes of its admitted columns whose presence changed. A row
// of amRows, which patchChanged patches whole, or one already visited for
// this k, adds nothing; with filter set, neither does a row markCols left
// unmarked.
func (p *DeltaProduct[T]) countVisit(m, a *matrix.Pattern, i, k Index, filter bool) bool {
	if p.amMark[i] || p.seen[i] == p.epoch {
		return false
	}
	p.seen[i] = p.epoch
	if filter && p.inCol[i] != p.epoch {
		return false
	}
	mRow, ents := m.Row(i), p.bNote.ents[k]
	if !admitsChange(mRow, ents, p.complement) {
		return false
	}
	if _, ok := slices.BinarySearch(a.Row(i), k); !ok {
		return false
	}
	for _, e := range ents {
		if d := noteDelta(e.st); d != 0 {
			if _, inMask := slices.BinarySearch(mRow, e.col); inMask != p.complement {
				p.patch = append(p.patch, patchKey(i, e.col, d))
			}
		}
	}
	return true
}

// patchKey packs one count change of output entry (i, j) so that sorting
// the keys groups them by row, then column: the change is +1 when the low
// bit is set and -1 otherwise.
func patchKey(i, j Index, d int) uint64 {
	key := uint64(uint32(i))<<32 | uint64(uint32(j))<<1
	if d > 0 {
		key |= 1
	}
	return key
}

// patchRows builds, in frontier order, the new output rows of the
// frontier into p.repl, whose arrays it reuses, and returns it. A changed
// row of M or A is patched whole (patchChanged); every other row is its
// previous output row with the summed changes of p.patch applied, an
// entry dropped at count 0 and inserted when it appears. m, a and b are
// the current mask, A and B.
func (p *DeltaProduct[T]) patchRows(frontier []Index, m, a, b *matrix.Pattern) *matrix.CSR[T] {
	slices.Sort(p.patch)
	out := &p.repl
	out.NRows, out.NCols = Index(len(frontier)), p.c.NCols
	out.RowPtr = append(out.RowPtr[:0], 0)
	out.Col, out.Val = out.Col[:0], out.Val[:0]
	var zero T
	e := 0 // next patch key
	for _, i := range frontier {
		if p.amMark[i] {
			p.patchChanged(out, i, m, a, b)
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
			start := x
			for x < len(cols) && cols[x] < j {
				x++
			}
			out.Col, out.Val = append(out.Col, cols[start:x]...), append(out.Val, vals[start:x]...)
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

// patchChanged appends to out the new output row i, a changed row of M or
// A, built from its previous output row. With Δ meaning new minus old, a
// column the mask admits at the last refresh and now changes by
// (ΔA·B)(i,j) + (A_old·ΔB)(i,j): each changed A(i,k) with net presence
// change δ adds δ for every j in the current B(k,:), and each k of A(i,:)
// as it was at the last refresh adds the net changes of B(k,:)'s noted
// entries, so the ΔA·ΔB term counts once. A column the mask admits only
// now is counted in full, Σ over k in the current A(i,:) of [j ∈ B(k,:)],
// and gets no changes; an entry the mask no longer admits is dropped. The
// mask row is marked in p.state, so each column's kind costs one load.
// The cost stays below the row's recompute: one pass over the mask row,
// A(i,:) and the previous output row, plus the B rows of the changed k
// and, for the newly admitted columns, the cheaper of one binary search
// per (column, k) pair and one pass over the B rows of A(i,:).
func (p *DeltaProduct[T]) patchChanged(out *matrix.CSR[T], i Index, m, a, b *matrix.Pattern) {
	if p.state == nil {
		p.state = make([]uint8, p.c.NCols)
		p.acc = make([]int32, p.c.NCols)
	}
	state, kinds := p.state, &p.kinds
	kind := func(j Index) uint8 { return kinds[state[j]&^stAcc] }
	mRow, aRow := m.Row(i), a.Row(i)
	mEnts, aEnts := p.mNote.ents[i], p.aNote.ents[i]
	for _, j := range mRow {
		state[j] = noteWas | noteNow
	}
	fresh := 0
	for _, e := range mEnts {
		state[e.col] = e.st
		if kinds[e.st] == colNew {
			fresh++
		}
	}
	// (ΔA·B)(i,:), read against the current B.
	for _, e := range aEnts {
		if d := noteDelta(e.st); d != 0 {
			for _, j := range b.Row(e.col) {
				if kind(j) == colKeep {
					p.add(j, d)
				}
			}
		}
	}
	// (A_old·ΔB)(i,:): the unchanged entries of A(i,:), then the changed
	// ones that were present.
	x := 0
	for _, k := range aRow {
		for x < len(aEnts) && aEnts[x].col < k {
			x++
		}
		if (x == len(aEnts) || aEnts[x].col != k) && p.bNote.in[k] {
			p.addChanges(k)
		}
	}
	for _, e := range aEnts {
		if e.st&noteWas != 0 && p.bNote.in[e.col] {
			p.addChanges(e.col)
		}
	}
	if fresh > 0 {
		flops, probes := 0, 0
		for _, k := range aRow {
			n := len(b.Row(k))
			flops, probes = flops+n, probes+bits.Len(uint(n))
		}
		if fresh*probes <= flops {
			for _, e := range mEnts {
				if kind(e.col) != colNew {
					continue
				}
				n := 0
				for _, k := range aRow {
					if _, ok := slices.BinarySearch(b.Row(k), e.col); ok {
						n++
					}
				}
				p.add(e.col, n)
			}
		} else {
			for _, k := range aRow {
				for _, j := range b.Row(k) {
					if kind(j) == colNew {
						p.add(j, 1)
					}
				}
			}
		}
	}
	// Merge the changes into the previous row, dropping the entries the
	// mask no longer admits.
	slices.Sort(p.accCols)
	cols, vals := p.c.Row(i)
	var zero T
	x = 0
	keep := func(end int) {
		for ; x < end; x++ {
			if kind(cols[x]) != colOut {
				out.Col, out.Val = append(out.Col, cols[x]), append(out.Val, vals[x])
			}
		}
	}
	for _, j := range p.accCols {
		end := x
		for end < len(cols) && cols[end] < j {
			end++
		}
		keep(end)
		v := zero
		if x < len(cols) && cols[x] == j {
			v = vals[x]
			x++
		}
		if v, ok := p.bump(v, int(p.acc[j])); ok {
			out.Col, out.Val = append(out.Col, j), append(out.Val, v)
		}
		p.acc[j] = 0
	}
	keep(len(cols))
	out.RowPtr = append(out.RowPtr, Index(len(out.Col)))
	for _, j := range p.accCols {
		state[j] = 0
	}
	for _, j := range mRow {
		state[j] = 0
	}
	for _, e := range mEnts {
		state[e.col] = 0
	}
	p.accCols = p.accCols[:0]
}

// add adds d to the count change of column j of the row being patched.
func (p *DeltaProduct[T]) add(j Index, d int) {
	if p.state[j]&stAcc == 0 {
		p.state[j] |= stAcc
		p.accCols = append(p.accCols, j)
	}
	p.acc[j] += int32(d)
}

// addChanges adds the net presence changes of row k of B's noted entries
// to the columns of the row being patched that the mask admits at the
// last refresh and now.
func (p *DeltaProduct[T]) addChanges(k Index) {
	for _, e := range p.bNote.ents[k] {
		if d := noteDelta(e.st); d != 0 && p.kinds[p.state[e.col]&^stAcc] == colKeep {
			p.add(e.col, d)
		}
	}
}

// admitsChange reports whether the mask row admits some changed column.
func admitsChange(mRow []Index, changed []noteEnt, complement bool) bool {
	for _, e := range changed {
		if _, inMask := slices.BinarySearch(mRow, e.col); inMask != complement {
			return true
		}
	}
	return false
}

// DeltaMult is the multiply callback Refresh computes products with. The
// first refresh calls it once for the full product, on the overlays'
// fresh Current snapshots, which the callback may keep (a plan cache keys
// on them). Off the count path every later refresh with a non-empty
// frontier calls it once more, for msub .* (asub · b), where msub and
// asub hold only the frontier rows (b is the full current B);
// DeltaProduct.Frontier names them. Those operands live in recycled
// arrays that later refreshes overwrite, so the callback must not keep
// them or hand them to anything that keys on array identity. A plus-pair
// product never calls it after its first refresh. masked.Session
// supplies its planner path; the apps layer supplies an Engine.
type DeltaMult[T any] func(msub *matrix.Pattern, asub, b *matrix.CSR[T]) (*matrix.CSR[T], error)

// Refresh brings the output up to date with the overlays' current content:
// the first call computes the full product on the overlays' Current
// snapshots, later calls renew only the dirty-row frontier and splice it
// into a fresh copy of the previous output. Off the count path every
// frontier row is recomputed through mult. On a plus-pair product no row
// is: each frontier row is its previous output row plus count changes.
// A row reached only through B changes keeps its mask row and A row, so
// it changes only at the changed columns j of each k in A(i,:), by the
// net presence change of B(k,j); a changed row of M or A is patched by
// patchChanged, which also counts the columns its mask newly admits and
// drops those it no longer does. Counts are integers below 2⁵³, exact in
// float64, so every patched row is bit-identical to a recompute. The
// later calls read the operands through matrix.RecycledSnapshot and build
// the sub-operands and the replacement rows in reused buffers, so apart
// from the output they allocate about what the batch and its frontier
// need, not the graph. It returns the full current output and the renewed
// rows (every row on the first call, empty when already clean; patched
// rows count, including those whose net change is 0) — the renewed-row
// list is what lets iterative consumers bound their own scans. Neither is
// ever overwritten later. On error or panic, including the kernel panic
// fault point a plus-pair refresh evaluates between deriving its count
// changes and the splice, the dirty frontier is retained, so the refresh
// can be retried; the count changes are derived afresh from it.
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
	// The count path reads patterns alone, so its snapshots skip values.
	vals := p.bump == nil
	curM := matrix.RecycledSnapshot(p.m, vals).Pattern()
	curA, curB := matrix.RecycledSnapshot(p.a, vals), matrix.RecycledSnapshot(p.b, vals)
	frontier := p.frontier(curM, curA.Pattern())
	if len(frontier) == 0 {
		p.resetDirty()
		return p.c, nil, nil
	}
	var repl *matrix.CSR[T]
	if p.bump != nil {
		repl = p.patchRows(frontier, curM, curA.Pattern(), curB.Pattern())
		if faultinject.Fire(faultinject.PointKernelPanic) {
			panic("faultinject: " + faultinject.PointKernelPanic)
		}
	} else {
		p.asub = matrix.ExtractRows(p.asub, curA, frontier)
		msub := p.asub.Pattern()
		if p.m != p.a {
			p.msub = matrix.ExtractRowsPattern(p.msub, curM, frontier)
			msub = p.msub
		}
		p.inFlight = frontier
		var err error
		if repl, err = mult(msub, p.asub, curB); err != nil {
			return nil, nil, err
		}
	}
	p.c = matrix.SpliceRows(p.c, frontier, repl)
	p.resetDirty()
	return p.c, frontier, nil
}

// Frontier returns the output rows the DeltaMult call in flight
// recomputes, ascending: row r of its sub-operands is row Frontier()[r] of
// the product. It is nil outside Refresh and during a full product, whose
// operands hold every row, and so always on a plus-pair product, which
// calls DeltaMult for its full product only. Callers must not mutate it.
func (p *DeltaProduct[T]) Frontier() []Index { return p.inFlight }

func (p *DeltaProduct[T]) resetDirty() {
	for _, i := range p.amRows {
		p.amMark[i] = false
	}
	p.amRows = p.amRows[:0]
	for _, t := range p.notes {
		t.reset()
	}
}
