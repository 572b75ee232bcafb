package matrix

// Row extraction and splicing — the operand views of the incremental
// (delta) execution path. A dirty-row frontier is materialized as a small
// rows×ncols CSR holding only the frontier rows (ExtractRows), the masked
// product runs on that sub-operand with the ordinary blocked drivers, and
// the recomputed rows are spliced back over the previous output
// (SpliceRows), which also patches DeltaCSR snapshots at their touched
// rows. The inputs are never mutated. ExtractRows writes into the arrays
// of a caller's earlier result, so a refresh loop reuses its buffers;
// SpliceRows always returns fresh storage.

// ExtractRows returns the len(rows)×(a.NCols) CSR whose row r is row
// rows[r] of a. rows must be in-range; duplicates are allowed (each
// occurrence copies the row). The result shares no storage with a. It is
// written into dst, an earlier result whose arrays are reused and grown
// as needed, and returned; a nil dst gives a fresh, exactly sized CSR.
func ExtractRows[T any](dst, a *CSR[T], rows []Index) *CSR[T] {
	if dst == nil {
		dst = &CSR[T]{}
	}
	p := ExtractRowsPattern(&Pattern{RowPtr: dst.RowPtr, Col: dst.Col}, a.Pattern(), rows)
	dst.NRows, dst.NCols, dst.RowPtr, dst.Col = p.NRows, p.NCols, p.RowPtr, p.Col
	dst.Val = grow(dst.Val, len(p.Col))
	for r, i := range rows {
		copy(dst.Val[p.RowPtr[r]:], a.Val[a.RowPtr[i]:a.RowPtr[i+1]])
	}
	return dst
}

// ExtractRowsPattern is ExtractRows for a structure-only pattern.
func ExtractRowsPattern(dst, p *Pattern, rows []Index) *Pattern {
	if dst == nil {
		dst = &Pattern{}
	}
	dst.NRows, dst.NCols = Index(len(rows)), p.NCols
	dst.RowPtr = grow(dst.RowPtr, len(rows)+1)
	dst.RowPtr[0] = 0
	nnz := Index(0)
	for r, i := range rows {
		nnz += p.RowPtr[i+1] - p.RowPtr[i]
		dst.RowPtr[r+1] = nnz
	}
	dst.Col = grow(dst.Col, int(nnz))
	for r, i := range rows {
		copy(dst.Col[dst.RowPtr[r]:], p.Col[p.RowPtr[i]:p.RowPtr[i+1]])
	}
	return dst
}

// grow returns s with length n, reusing its array when it has room. A new
// array is sized exactly for a nil s and with one-sixteenth headroom for a
// recycled one, so a buffer whose size wanders by a few entries stops
// reallocating. The contents are not preserved.
func grow[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	if s == nil {
		return make([]E, n)
	}
	return make([]E, n, n+n/16)
}

// SpliceRows returns a copy of old with row rows[r] replaced by row r of
// sub, for every r. rows must be strictly increasing and in-range, and sub
// must have len(rows) rows and old's column count. Neither input is
// mutated. The output is sized exactly, and each run of unchanged rows
// between two spliced rows moves with one copy and a shifted RowPtr, so
// the cost is one bulk copy of old plus O(len(rows)) row-sized steps.
// DeltaCSR's private snapshot is patched the same way, into recycled
// arrays (spliceRows); SpliceRows always returns fresh storage.
func SpliceRows[T any](old *CSR[T], rows []Index, sub *CSR[T]) *CSR[T] {
	return spliceRows(nil, old, rows, sub, true)
}

// spliceRows is SpliceRows writing into dst's arrays, grown as needed
// (nil: a fresh, exactly sized CSR), and moving the pattern alone when
// values is unset (the result's Val is then nil). dst must not share
// storage with old or sub.
func spliceRows[T any](dst, old *CSR[T], rows []Index, sub *CSR[T], values bool) *CSR[T] {
	nnz := Index(len(old.Col)) + Index(len(sub.Col))
	for _, i := range rows {
		nnz -= old.RowPtr[i+1] - old.RowPtr[i]
	}
	out := dst
	if out == nil {
		out = &CSR[T]{}
	}
	out.NRows, out.NCols = old.NRows, old.NCols
	out.RowPtr = grow(out.RowPtr, int(old.NRows)+1)
	out.Col = grow(out.Col, int(nnz))
	if values {
		out.Val = grow(out.Val, int(nnz))
	} else {
		out.Val = nil
	}
	out.RowPtr[0] = 0
	pos := Index(0) // next free output position
	// copyRun copies old's rows [from, to) to the output at pos.
	copyRun := func(from, to Index) {
		lo, hi := old.RowPtr[from], old.RowPtr[to]
		copy(out.Col[pos:], old.Col[lo:hi])
		if values {
			copy(out.Val[pos:], old.Val[lo:hi])
		}
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
		if values {
			copy(out.Val[pos:], sub.Val[lo:hi])
		}
		pos += hi - lo
		out.RowPtr[i+1] = pos
		next = i + 1
	}
	copyRun(next, old.NRows)
	return out
}
