package matrix

import (
	"fmt"
	"slices"
	"unsafe"
)

// Delta-CSR — an immutable base CSR plus batched per-row insert/delete
// logs, the dynamic-graph substrate of the streaming workloads. Edge
// batches land in the logs in O(batch · log row) without touching the
// base; readers materialize rows on demand by merging a base row with its
// log (MergedRow), or the whole matrix at once (Current), so the blocked
// SpGEMM drivers always see a plain sorted CSR and the kernels stay
// delta-oblivious. A snapshot patches an earlier one: only the rows
// touched since then are re-merged, and every other row moves with one
// bulk copy (SpliceRows). Current's snapshots are fresh CSRs; the one the
// incremental refresh reads (RecycledSnapshot) is private and reuses the
// arrays of the snapshot before last, so a steady stream of refreshes
// stops allocating the graph, and a refresh that reads patterns alone
// keeps it without values. When the pending-log volume crosses a
// bounded merge threshold, the logs are folded into a fresh base
// (Compact), keeping merge cost amortized O(1) per applied update.

// Update is one edge mutation applied to a DeltaCSR: set entry (Row, Col)
// to Val — inserting it if absent, overwriting if present — or remove it
// when Delete is true. Deleting an absent entry is a no-op.
type Update[T any] struct {
	Row, Col Index
	Val      T
	Delete   bool
}

// rowLog holds the pending mutations of one row: inserted/overwritten
// entries and deleted base columns, both sorted by column.
type rowLog[T any] struct {
	insCol []Index // sorted, duplicate-free
	insVal []T
	del    []Index // sorted, duplicate-free, all present in the base row
}

// DeltaCSR is a dynamic sparse matrix: a base CSR (never mutated in place)
// overlaid with per-row insert/delete logs, indexed densely by row. The
// zero value is not usable; construct with NewDeltaCSR. DeltaCSR is not
// safe for concurrent mutation; snapshots returned by Current and Compact
// are fresh, immutable CSRs and may be read concurrently with later
// mutations. The private snapshot of RecycledSnapshot is not: its arrays
// are overwritten by later refreshes.
type DeltaCSR[T any] struct {
	nrows, ncols Index
	base         *CSR[T]
	// logs[i] holds row i's pending mutations, nil exactly when it has
	// none; logged counts the non-nil entries.
	logs      []*rowLog[T]
	logged    int
	pending   int // total log entries (inserts + deletes)
	nnz       int // entry count of the merged matrix, maintained incrementally
	gen       uint64
	threshold float64
	// snap is Current's last snapshot (nil: the base is the reference),
	// and stale holds the rows touched since it was taken — the only rows
	// whose merged content may differ from it.
	snap  *CSR[T]
	stale rowSet
	// own is RecycledSnapshot's last result (nil before the first), and
	// ownStale the rows touched since it was taken; spare is the one
	// before it, whose arrays the next patch overwrites. ownPattern
	// records that own holds the pattern alone (its Val is nil). Current,
	// Compact and Base never return either.
	own, spare *CSR[T]
	ownStale   rowSet
	ownPattern bool
	// sub stages the re-merged rows of a patch; its arrays are reused.
	sub CSR[T]
}

// rowSet is a duplicate-free set of rows: a list in insertion order and a
// dense membership mark, allocated by the first add.
type rowSet struct {
	rows []Index
	mark []bool
}

// add inserts rows into s; n is the row count of the matrix.
func (s *rowSet) add(n Index, rows []Index) {
	if s.mark == nil {
		s.mark = make([]bool, n)
	}
	for _, i := range rows {
		if !s.mark[i] {
			s.mark[i] = true
			s.rows = append(s.rows, i)
		}
	}
}

// sorted sorts s's rows ascending in place and returns them.
func (s *rowSet) sorted() []Index {
	slices.Sort(s.rows)
	return s.rows
}

// reset empties s, keeping its storage.
func (s *rowSet) reset() {
	for _, i := range s.rows {
		s.mark[i] = false
	}
	s.rows = s.rows[:0]
}

// DefaultMergeThreshold is the default bound on pending log volume: when
// pending entries exceed this fraction of the base nnz, ApplyBatch compacts
// automatically. See SetMergeThreshold.
const DefaultMergeThreshold = 0.25

// NewDeltaCSR wraps base in a delta overlay. The base must have strictly
// increasing (sorted, duplicate-free) rows — the invariant every builder in
// this package establishes — and must not be mutated afterwards; the
// overlay never mutates it. Returns an error if the base is invalid or has
// unsorted rows.
func NewDeltaCSR[T any](base *CSR[T]) (*DeltaCSR[T], error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("matrix: delta base: %w", err)
	}
	if !base.IsSortedRows() {
		return nil, fmt.Errorf("matrix: delta base has unsorted rows (SortRows first)")
	}
	return &DeltaCSR[T]{
		nrows:     base.NRows,
		ncols:     base.NCols,
		base:      base,
		logs:      make([]*rowLog[T], base.NRows),
		nnz:       base.NNZ(),
		threshold: DefaultMergeThreshold,
	}, nil
}

// SetMergeThreshold bounds the pending-log volume: once pending insert and
// delete entries exceed f × max(base nnz, 1), the next ApplyBatch folds the
// logs into a fresh base. f <= 0 restores DefaultMergeThreshold. Larger
// values defer merge cost, smaller values keep merged-row reads cheaper.
func (d *DeltaCSR[T]) SetMergeThreshold(f float64) {
	if f <= 0 {
		f = DefaultMergeThreshold
	}
	d.threshold = f
}

// Dims returns the matrix dimensions.
func (d *DeltaCSR[T]) Dims() (nrows, ncols Index) { return d.nrows, d.ncols }

// NNZ returns the entry count of the merged matrix (base plus pending
// inserts minus pending deletes).
func (d *DeltaCSR[T]) NNZ() int { return d.nnz }

// Pending returns the number of pending log entries (inserts + deletes)
// not yet folded into the base.
func (d *DeltaCSR[T]) Pending() int { return d.pending }

// Gen returns the generation counter: it advances on every non-empty
// applied batch, so callers can cheaply detect staleness of derived
// state. Compact does not advance it (content is unchanged).
func (d *DeltaCSR[T]) Gen() uint64 { return d.gen }

// Base returns the current base CSR, which excludes pending log entries.
// Callers must not mutate it.
func (d *DeltaCSR[T]) Base() *CSR[T] { return d.base }

// baseHas reports whether base row i stores column j (binary search; base
// rows are sorted).
func (d *DeltaCSR[T]) baseHas(i, j Index) bool {
	_, ok := slices.BinarySearch(d.base.Col[d.base.RowPtr[i]:d.base.RowPtr[i+1]], j)
	return ok
}

// ApplyBatch applies a batch of updates in order. Updates are validated
// first: any out-of-range row or column index rejects the whole batch with
// an error and no mutation. Duplicate edges within a batch apply
// last-writer-wins; deletes of absent entries are no-ops. Returns the
// distinct rows the batch touched (ascending), which is the batch's
// dirty-row set even when an insert-then-delete pair nets out. When was is
// non-nil it must hold len(batch) slots: was[x] receives whether the
// entry batch[x] names was stored just before that update applied, read
// from the same log and base row lookups the update makes.
// If the pending-log volume crosses the merge threshold after the batch,
// the logs are folded into a fresh base before returning.
func (d *DeltaCSR[T]) ApplyBatch(batch []Update[T], was []bool) ([]Index, error) {
	for k, u := range batch {
		if u.Row < 0 || u.Row >= d.nrows || u.Col < 0 || u.Col >= d.ncols {
			return nil, fmt.Errorf("matrix: delta update %d: index (%d, %d) out of range %dx%d",
				k, u.Row, u.Col, d.nrows, d.ncols)
		}
	}
	if len(batch) == 0 {
		return nil, nil
	}
	rows := make([]Index, 0, len(batch))
	for x, u := range batch {
		rows = append(rows, u.Row)
		var had bool
		if u.Delete {
			had = d.applyDelete(u.Row, u.Col)
		} else {
			had = d.applyInsert(u.Row, u.Col, u.Val)
		}
		if was != nil {
			was[x] = had
		}
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	d.stale.add(d.nrows, rows)
	if d.own != nil {
		d.ownStale.add(d.nrows, rows)
	}
	d.gen++
	if float64(d.pending) > d.threshold*float64(max(d.base.NNZ(), 1)) {
		d.Compact()
	}
	return rows, nil
}

// log returns row i's log, creating it if absent.
func (d *DeltaCSR[T]) log(i Index) *rowLog[T] {
	l := d.logs[i]
	if l == nil {
		l = &rowLog[T]{}
		d.logs[i] = l
		d.logged++
	}
	return l
}

// dropEmptyLog removes row i's log if it no longer holds entries.
func (d *DeltaCSR[T]) dropEmptyLog(i Index, l *rowLog[T]) {
	if len(l.insCol) == 0 && len(l.del) == 0 {
		d.logs[i] = nil
		d.logged--
	}
}

// addDelete records the deletion of base entry (i, j) in l unless it is
// already recorded, and reports whether it was not.
func (d *DeltaCSR[T]) addDelete(l *rowLog[T], j Index) bool {
	k, found := slices.BinarySearch(l.del, j)
	if !found {
		l.del = slices.Insert(l.del, k, j)
		d.pending++
		d.nnz--
	}
	return !found
}

// applyInsert sets entry (i, j) to v and reports whether it was stored
// before.
func (d *DeltaCSR[T]) applyInsert(i, j Index, v T) bool {
	l := d.log(i)
	was := true
	// Un-delete: a pending delete of (i, j) flips back to presence with
	// the new value (recorded as an overwrite insert).
	if k, found := slices.BinarySearch(l.del, j); found {
		l.del = slices.Delete(l.del, k, k+1)
		d.pending--
		d.nnz++
		was = false
	}
	if k, found := slices.BinarySearch(l.insCol, j); found {
		l.insVal[k] = v // duplicate insert: last writer wins
	} else {
		l.insCol = slices.Insert(l.insCol, k, j)
		l.insVal = slices.Insert(l.insVal, k, v)
		d.pending++
		if !d.baseHas(i, j) {
			d.nnz++ // true insert; overwrite of a base entry keeps nnz
			was = false
		}
	}
	d.dropEmptyLog(i, l)
	return was
}

// applyDelete removes entry (i, j) and reports whether it was stored
// before.
func (d *DeltaCSR[T]) applyDelete(i, j Index) bool {
	l := d.logs[i]
	if l != nil {
		if k, found := slices.BinarySearch(l.insCol, j); found {
			l.insCol = slices.Delete(l.insCol, k, k+1)
			l.insVal = slices.Delete(l.insVal, k, k+1)
			d.pending--
			if !d.baseHas(i, j) {
				d.nnz-- // the insert was the only source of this entry
			} else {
				// The insert was an overwrite; the base entry remains and
				// must now be deleted too.
				d.addDelete(l, j)
			}
			d.dropEmptyLog(i, l)
			return true
		}
	}
	return d.baseHas(i, j) && d.addDelete(d.log(i), j)
}

// MergedRow appends row i of the merged matrix (base row with its log
// applied) to cols and vals and returns the extended slices, sorted by
// column. For rows with no pending log it returns sub-slices of the base
// storage directly when cols and vals are both nil (zero copy); their
// capacity ends at the row, so appending to them reallocates instead of
// overwriting the next base row.
func (d *DeltaCSR[T]) MergedRow(i Index, cols []Index, vals []T) ([]Index, []T) {
	if d.logs[i] == nil && cols == nil && vals == nil {
		lo, hi := d.base.RowPtr[i], d.base.RowPtr[i+1]
		return d.base.Col[lo:hi:hi], d.base.Val[lo:hi:hi]
	}
	return d.mergeRow(i, cols, vals, true)
}

// mergeRow appends row i of the merged matrix to cols, sorted by column,
// and its values to vals unless values is unset, and returns the extended
// slices.
func (d *DeltaCSR[T]) mergeRow(i Index, cols []Index, vals []T, values bool) ([]Index, []T) {
	lo, hi := d.base.RowPtr[i], d.base.RowPtr[i+1]
	l := d.logs[i]
	if l == nil {
		if values {
			vals = append(vals, d.base.Val[lo:hi]...)
		}
		return append(cols, d.base.Col[lo:hi]...), vals
	}
	bCol, bVal := d.base.Col[lo:hi], d.base.Val[lo:hi]
	bi, ii, di := 0, 0, 0
	for bi < len(bCol) || ii < len(l.insCol) {
		// Take the smaller column; on ties the insert wins (overwrite).
		if ii < len(l.insCol) && (bi >= len(bCol) || l.insCol[ii] <= bCol[bi]) {
			j := l.insCol[ii]
			if bi < len(bCol) && bCol[bi] == j {
				bi++ // base entry shadowed by the overwrite
			}
			cols = append(cols, j)
			if values {
				vals = append(vals, l.insVal[ii])
			}
			ii++
			continue
		}
		j := bCol[bi]
		for di < len(l.del) && l.del[di] < j {
			di++
		}
		if di < len(l.del) && l.del[di] == j {
			bi++ // deleted base entry
			continue
		}
		cols = append(cols, j)
		if values {
			vals = append(vals, bVal[bi])
		}
		bi++
	}
	return cols, vals
}

// merged materializes the merged matrix as a fresh CSR with sorted rows,
// merging every row. Validate uses it as the independent reference for
// the patched snapshots Current builds.
func (d *DeltaCSR[T]) merged() *CSR[T] {
	out := &CSR[T]{
		NRows:  d.nrows,
		NCols:  d.ncols,
		RowPtr: make([]Index, d.nrows+1),
		Col:    make([]Index, 0, d.nnz),
		Val:    make([]T, 0, d.nnz),
	}
	for i := Index(0); i < d.nrows; i++ {
		out.Col, out.Val = d.MergedRow(i, out.Col, out.Val)
		out.RowPtr[i+1] = Index(len(out.Col))
	}
	return out
}

// Current returns the merged matrix as an immutable CSR snapshot without
// mutating the base or consuming the logs. The snapshot is cached per
// generation: repeated calls between batches return the same CSR, and the
// base itself is returned when no updates are pending. A new snapshot
// patches an earlier one (its own previous snapshot, the base, or the
// refresh's private snapshot when it holds values, whichever has fewer
// rows touched since):
// it re-merges only those rows and splices them in, so its cost is one
// bulk copy plus O(touched rows) merges. Current's snapshots are fresh
// CSRs that nothing ever patches in place, so a reader holding an older
// one is unaffected, and they may be handed to anything that keys on
// array identity, such as a plan cache. Callers must not mutate the
// result.
func (d *DeltaCSR[T]) Current() *CSR[T] {
	if d.pending == 0 {
		d.snap = nil
		d.stale.reset()
		return d.base
	}
	if d.snap != nil && len(d.stale.rows) == 0 {
		return d.snap
	}
	src, stale := d.snap, &d.stale
	if src == nil {
		src = d.base
	}
	if d.own != nil && !d.ownPattern && len(d.ownStale.rows) < len(d.stale.rows) {
		// Reading the private snapshot is safe when it holds values; only
		// the result must be fresh storage.
		src, stale = d.own, &d.ownStale
	}
	d.snap = d.patch(nil, src, stale.sorted(), true)
	d.stale.reset()
	return d.snap
}

// RecycledSnapshot returns d's merged matrix like d.Current, but in
// storage private to d's one incremental reader: a call that finds rows
// touched since the previous one re-merges just those rows and splices
// them, over the previous result, into the arrays of the result before
// it, so a steady stream of refreshes allocates nothing per call once
// the arrays have grown to the matrix. With values unset a patching call
// moves the pattern alone and leaves the result's Val nil, which saves a
// reader of patterns the value copy (two thirds of the bytes for float64
// values); a call with values after one without builds the values
// afresh, so a reader should keep to one mode. It
// returns the previous result when nothing was touched since. A result
// stays valid until the second later call that patches: callers must
// not keep it, mutate it, or hand it to anything that keys on array
// identity (the plan cache). DeltaProduct.Refresh reads its incremental
// operands through it; everything else takes Current. It is a function,
// not a method, so that it stays off the masked.DeltaMatrix API.
func RecycledSnapshot[T any](d *DeltaCSR[T], values bool) *CSR[T] {
	if d.pending == 0 {
		return d.base
	}
	if values && d.ownPattern {
		// The private snapshot lacks values: start it over.
		d.own, d.spare, d.ownPattern = nil, nil, false
		d.ownStale.reset()
	}
	if d.own != nil && len(d.ownStale.rows) == 0 {
		return d.own
	}
	if d.own == nil {
		// The first call starts from Current's reference, whose touched
		// rows stay tracked for Current.
		src := d.snap
		if src == nil {
			src = d.base
		}
		d.own = d.patch(nil, src, d.stale.sorted(), true)
		return d.own
	}
	out := d.patch(d.spare, d.own, d.ownStale.sorted(), values)
	d.ownStale.reset()
	d.own, d.spare, d.ownPattern = out, d.own, !values
	return out
}

// patch returns the merged matrix built from src, a snapshot whose
// content differs from the merged matrix only at rows (ascending): those
// rows are re-merged and spliced over src into dst's arrays (nil: fresh,
// exactly sized ones), with their values unless values is unset (then
// the rows' values are neither merged nor copied, and the result's Val is
// nil).
func (d *DeltaCSR[T]) patch(dst, src *CSR[T], rows []Index, values bool) *CSR[T] {
	sub := &d.sub
	sub.NRows, sub.NCols = Index(len(rows)), d.ncols
	sub.RowPtr = append(sub.RowPtr[:0], 0)
	// Without values only the columns are merged; sub.Val stays empty.
	sub.Col, sub.Val = sub.Col[:0], sub.Val[:0]
	for _, i := range rows {
		sub.Col, sub.Val = d.mergeRow(i, sub.Col, sub.Val, values)
		sub.RowPtr = append(sub.RowPtr, Index(len(sub.Col)))
	}
	return spliceRows(dst, src, rows, sub, values)
}

// Compact folds the pending logs into a fresh base CSR and clears them:
// the new base is the Current snapshot, which costs nothing more when it
// is already up to date. The matrix content is unchanged (Gen does not
// advance); only the storage identity of Base/Current moves. The
// refresh's private snapshot survives: it still differs from the content
// only at the rows touched since it was taken. Returns the new base.
func (d *DeltaCSR[T]) Compact() *CSR[T] {
	if d.pending == 0 {
		return d.base
	}
	d.base = d.Current()
	clear(d.logs)
	d.logged = 0
	d.pending = 0
	d.snap = nil
	return d.base
}

// Validate checks the overlay invariants: a valid sorted base, a log index
// with one slot per row whose non-nil logs are exactly the non-empty ones
// and match the tracked count, sorted duplicate-free logs whose deletes
// all name base entries, consistent pending and nnz accounting, and a
// valid merged matrix whose patched snapshots (Current, and the private
// one of RecycledSnapshot once taken) match an independent full merge bit
// for bit. It reports the first violation; tests and the fuzzer use it as
// the corruption oracle.
func (d *DeltaCSR[T]) Validate() error {
	if err := d.base.Validate(); err != nil {
		return fmt.Errorf("matrix: delta base: %w", err)
	}
	if !d.base.IsSortedRows() {
		return fmt.Errorf("matrix: delta base rows unsorted")
	}
	if len(d.logs) != int(d.nrows) {
		return fmt.Errorf("matrix: delta log index has %d rows, want %d", len(d.logs), d.nrows)
	}
	pending, nnz, logged := 0, d.base.NNZ(), 0
	for i, l := range d.logs {
		if l == nil {
			continue
		}
		logged++
		if len(l.insCol) == 0 && len(l.del) == 0 {
			return fmt.Errorf("matrix: delta row %d holds an empty log", i)
		}
		if len(l.insCol) != len(l.insVal) {
			return fmt.Errorf("matrix: delta row %d insert cols/vals length mismatch", i)
		}
		for k := range l.insCol {
			j := l.insCol[k]
			if j < 0 || j >= d.ncols {
				return fmt.Errorf("matrix: delta row %d insert column %d out of range", i, j)
			}
			if k > 0 && l.insCol[k-1] >= j {
				return fmt.Errorf("matrix: delta row %d insert log unsorted", i)
			}
			if !d.baseHas(Index(i), j) {
				nnz++
			}
		}
		for k, j := range l.del {
			if k > 0 && l.del[k-1] >= j {
				return fmt.Errorf("matrix: delta row %d delete log unsorted", i)
			}
			if !d.baseHas(Index(i), j) {
				return fmt.Errorf("matrix: delta row %d deletes absent column %d", i, j)
			}
			if _, found := slices.BinarySearch(l.insCol, j); found {
				return fmt.Errorf("matrix: delta row %d column %d both inserted and deleted", i, j)
			}
			nnz--
		}
		pending += len(l.insCol) + len(l.del)
	}
	if logged != d.logged {
		return fmt.Errorf("matrix: delta logged rows: counted %d, tracked %d", logged, d.logged)
	}
	if pending != d.pending {
		return fmt.Errorf("matrix: delta pending accounting: counted %d, tracked %d", pending, d.pending)
	}
	if nnz != d.nnz {
		return fmt.Errorf("matrix: delta nnz accounting: counted %d, tracked %d", nnz, d.nnz)
	}
	cur := d.Current()
	if err := cur.Validate(); err != nil {
		return fmt.Errorf("matrix: delta merged: %w", err)
	}
	if !cur.IsSortedRows() {
		return fmt.Errorf("matrix: delta merged rows unsorted")
	}
	if cur.NNZ() != d.nnz {
		return fmt.Errorf("matrix: delta merged nnz %d, tracked %d", cur.NNZ(), d.nnz)
	}
	full := d.merged()
	if !sameCSR(cur, full) {
		return fmt.Errorf("matrix: delta snapshot differs from a full merge")
	}
	if d.own != nil {
		own := RecycledSnapshot(d, !d.ownPattern)
		if d.ownPattern {
			full.Val, own = nil, &CSR[T]{NRows: own.NRows, NCols: own.NCols, RowPtr: own.RowPtr, Col: own.Col}
		}
		if !sameCSR(own, full) {
			return fmt.Errorf("matrix: delta private snapshot differs from a full merge")
		}
	}
	return nil
}

// sameCSR reports whether x and y hold the same arrays' contents, values
// bit for bit.
func sameCSR[T any](x, y *CSR[T]) bool {
	return x.NRows == y.NRows && x.NCols == y.NCols && slices.Equal(x.RowPtr, y.RowPtr) &&
		slices.Equal(x.Col, y.Col) && sameBits(x.Val, y.Val)
}

// sameBits reports whether x and y hold the same values bit for bit
// (NaN payloads included, which == cannot compare).
func sameBits[T any](x, y []T) bool {
	if len(x) != len(y) {
		return false
	}
	if len(x) == 0 {
		return true
	}
	n := len(x) * int(unsafe.Sizeof(x[0]))
	return string(unsafe.Slice((*byte)(unsafe.Pointer(&x[0])), n)) ==
		string(unsafe.Slice((*byte)(unsafe.Pointer(&y[0])), n))
}
