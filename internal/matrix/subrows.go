package matrix

// Row extraction and splicing — the operand views of the incremental
// (delta) execution path. A dirty-row frontier is materialized as a small
// rows×ncols CSR holding only the frontier rows (ExtractRows), the masked
// product runs on that sub-operand with the ordinary blocked drivers, and
// the recomputed rows are spliced back over the previous output
// (SpliceRows), which also patches DeltaCSR snapshots at their touched
// rows. Both are pure copies: the inputs are never mutated.

// ExtractRows returns the len(rows)×(a.NCols) CSR whose row r is row
// rows[r] of a. rows must be in-range; duplicates are allowed (each
// occurrence copies the row). The result shares no storage with a.
func ExtractRows[T any](a *CSR[T], rows []Index) *CSR[T] {
	out := &CSR[T]{
		NRows:  Index(len(rows)),
		NCols:  a.NCols,
		RowPtr: make([]Index, len(rows)+1),
	}
	nnz := Index(0)
	for r, i := range rows {
		nnz += a.RowPtr[i+1] - a.RowPtr[i]
		out.RowPtr[r+1] = nnz
	}
	out.Col = make([]Index, nnz)
	out.Val = make([]T, nnz)
	for r, i := range rows {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		copy(out.Col[out.RowPtr[r]:], a.Col[lo:hi])
		copy(out.Val[out.RowPtr[r]:], a.Val[lo:hi])
	}
	return out
}

// ExtractRowsPattern is ExtractRows for a structure-only pattern.
func ExtractRowsPattern(p *Pattern, rows []Index) *Pattern {
	out := &Pattern{
		NRows:  Index(len(rows)),
		NCols:  p.NCols,
		RowPtr: make([]Index, len(rows)+1),
	}
	nnz := Index(0)
	for r, i := range rows {
		nnz += p.RowPtr[i+1] - p.RowPtr[i]
		out.RowPtr[r+1] = nnz
	}
	out.Col = make([]Index, nnz)
	for r, i := range rows {
		copy(out.Col[out.RowPtr[r]:], p.Col[p.RowPtr[i]:p.RowPtr[i+1]])
	}
	return out
}

// SpliceRows returns a copy of old with row rows[r] replaced by row r of
// sub, for every r. rows must be strictly increasing and in-range, and sub
// must have len(rows) rows and old's column count. Neither input is
// mutated. The output is sized exactly, and each run of unchanged rows
// between two spliced rows moves with one copy and a shifted RowPtr, so
// the cost is one bulk copy of old plus O(len(rows)) row-sized steps.
func SpliceRows[T any](old *CSR[T], rows []Index, sub *CSR[T]) *CSR[T] {
	nnz := Index(len(old.Col)) + Index(len(sub.Col))
	for _, i := range rows {
		nnz -= old.RowPtr[i+1] - old.RowPtr[i]
	}
	out := &CSR[T]{
		NRows:  old.NRows,
		NCols:  old.NCols,
		RowPtr: make([]Index, old.NRows+1),
		Col:    make([]Index, nnz),
		Val:    make([]T, nnz),
	}
	pos := Index(0) // next free output position
	// copyRun copies old's rows [from, to) to the output at pos.
	copyRun := func(from, to Index) {
		lo, hi := old.RowPtr[from], old.RowPtr[to]
		copy(out.Col[pos:], old.Col[lo:hi])
		copy(out.Val[pos:], old.Val[lo:hi])
		shift := pos - lo
		for i := from; i < to; i++ {
			out.RowPtr[i+1] = old.RowPtr[i+1] + shift
		}
		pos += hi - lo
	}
	next := Index(0) // first old row not yet emitted
	for r, i := range rows {
		copyRun(next, i)
		lo, hi := sub.RowPtr[r], sub.RowPtr[r+1]
		copy(out.Col[pos:], sub.Col[lo:hi])
		copy(out.Val[pos:], sub.Val[lo:hi])
		pos += hi - lo
		out.RowPtr[i+1] = pos
		next = i + 1
	}
	copyRun(next, old.NRows)
	return out
}
