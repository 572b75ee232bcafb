package matrix

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"
)

// Delta-CSR — an immutable base CSR plus batched per-row insert/delete
// logs, the dynamic-graph substrate of the streaming workloads. Edge
// batches land in the logs in O(batch · log row) without touching the
// base; readers materialize rows on demand by merging a base row with its
// log (MergedRow), or the whole matrix at once (Current), so the blocked
// SpGEMM drivers always see a plain sorted CSR and the kernels stay
// delta-oblivious. Current patches its previous snapshot: only the rows
// touched since then are re-merged, and every other row moves with one
// bulk copy (SpliceRows). When the pending-log volume crosses a bounded
// merge threshold, the logs are folded into a fresh base (Compact),
// keeping merge cost amortized O(1) per applied update.

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
// overlaid with per-row insert/delete logs. The zero value is not usable;
// construct with NewDeltaCSR. DeltaCSR is not safe for concurrent
// mutation; snapshots returned by Current and Compact are immutable CSRs
// and may be read concurrently with later mutations.
type DeltaCSR[T any] struct {
	nrows, ncols Index
	base         *CSR[T]
	logs         map[Index]*rowLog[T]
	pending      int // total log entries (inserts + deletes)
	nnz          int // entry count of the merged matrix, maintained incrementally
	gen          uint64
	threshold    float64
	// snap is the last merged snapshot (nil: the base is the reference),
	// and stale lists the rows touched since it was taken — the only rows
	// whose merged content may differ from it (unsorted, may repeat).
	snap  *CSR[T]
	stale []Index
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
		logs:      make(map[Index]*rowLog[T]),
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

// searchIndex is sort.Search over a sorted Index slice.
func searchIndex(s []Index, j Index) int {
	return sort.Search(len(s), func(k int) bool { return s[k] >= j })
}

// baseHas reports whether base row i stores column j (binary search; base
// rows are sorted).
func (d *DeltaCSR[T]) baseHas(i, j Index) bool {
	cols := d.base.Col[d.base.RowPtr[i]:d.base.RowPtr[i+1]]
	k := searchIndex(cols, j)
	return k < len(cols) && cols[k] == j
}

// ApplyBatch applies a batch of updates in order. Updates are validated
// first: any out-of-range row or column index rejects the whole batch with
// an error and no mutation. Duplicate edges within a batch apply
// last-writer-wins; deletes of absent entries are no-ops. Returns the
// distinct rows the batch touched (ascending), which is the batch's
// dirty-row set even when an insert-then-delete pair nets out.
// If the pending-log volume crosses the merge threshold after the batch,
// the logs are folded into a fresh base before returning.
func (d *DeltaCSR[T]) ApplyBatch(batch []Update[T]) ([]Index, error) {
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
	for _, u := range batch {
		rows = append(rows, u.Row)
		if u.Delete {
			d.applyDelete(u.Row, u.Col)
		} else {
			d.applyInsert(u.Row, u.Col, u.Val)
		}
	}
	slices.Sort(rows)
	rows = slices.Compact(rows)
	d.stale = append(d.stale, rows...)
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
	}
	return l
}

// dropEmptyLog removes row i's log if it no longer holds entries.
func (d *DeltaCSR[T]) dropEmptyLog(i Index, l *rowLog[T]) {
	if len(l.insCol) == 0 && len(l.del) == 0 {
		delete(d.logs, i)
	}
}

func (d *DeltaCSR[T]) applyInsert(i, j Index, v T) {
	l := d.log(i)
	// Un-delete: a pending delete of (i, j) flips back to presence with
	// the new value (recorded as an overwrite insert).
	if k := searchIndex(l.del, j); k < len(l.del) && l.del[k] == j {
		l.del = append(l.del[:k], l.del[k+1:]...)
		d.pending--
		d.nnz++
	}
	if k := searchIndex(l.insCol, j); k < len(l.insCol) && l.insCol[k] == j {
		l.insVal[k] = v // duplicate insert: last writer wins
	} else {
		l.insCol = append(l.insCol, 0)
		copy(l.insCol[k+1:], l.insCol[k:])
		l.insCol[k] = j
		var zero T
		l.insVal = append(l.insVal, zero)
		copy(l.insVal[k+1:], l.insVal[k:])
		l.insVal[k] = v
		d.pending++
		if !d.baseHas(i, j) {
			d.nnz++ // true insert; overwrite of a base entry keeps nnz
		}
	}
	d.dropEmptyLog(i, l)
}

func (d *DeltaCSR[T]) applyDelete(i, j Index) {
	l := d.log(i)
	if k := searchIndex(l.insCol, j); k < len(l.insCol) && l.insCol[k] == j {
		l.insCol = append(l.insCol[:k], l.insCol[k+1:]...)
		l.insVal = append(l.insVal[:k], l.insVal[k+1:]...)
		d.pending--
		if !d.baseHas(i, j) {
			d.nnz-- // the insert was the only source of this entry
		} else {
			// The insert was an overwrite; the base entry remains and must
			// now be deleted below.
			if k := searchIndex(l.del, j); !(k < len(l.del) && l.del[k] == j) {
				l.del = append(l.del, 0)
				copy(l.del[k+1:], l.del[k:])
				l.del[k] = j
				d.pending++
				d.nnz--
			}
		}
		d.dropEmptyLog(i, l)
		return
	}
	if d.baseHas(i, j) {
		if k := searchIndex(l.del, j); !(k < len(l.del) && l.del[k] == j) {
			l.del = append(l.del, 0)
			copy(l.del[k+1:], l.del[k:])
			l.del[k] = j
			d.pending++
			d.nnz--
		}
	}
	d.dropEmptyLog(i, l)
}

// MergedRow appends row i of the merged matrix (base row with its log
// applied) to cols and vals and returns the extended slices, sorted by
// column. For rows with no pending log it returns sub-slices of the base
// storage directly when cols and vals are both nil (zero copy); their
// capacity ends at the row, so appending to them reallocates instead of
// overwriting the next base row.
func (d *DeltaCSR[T]) MergedRow(i Index, cols []Index, vals []T) ([]Index, []T) {
	lo, hi := d.base.RowPtr[i], d.base.RowPtr[i+1]
	l := d.logs[i]
	if l == nil {
		if cols == nil && vals == nil {
			return d.base.Col[lo:hi:hi], d.base.Val[lo:hi:hi]
		}
		return append(cols, d.base.Col[lo:hi]...), append(vals, d.base.Val[lo:hi]...)
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
			vals = append(vals, l.insVal[ii])
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
		vals = append(vals, bVal[bi])
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
// patches the previous one (or the base): it re-merges only the rows
// touched since then and splices them in, so its cost is one bulk copy
// plus O(touched rows) merges. Snapshots are fresh CSRs, never patched in
// place, so a reader holding an older one is unaffected. Callers must not
// mutate the result.
func (d *DeltaCSR[T]) Current() *CSR[T] {
	if d.pending == 0 {
		d.snap, d.stale = nil, d.stale[:0]
		return d.base
	}
	if d.snap != nil && len(d.stale) == 0 {
		return d.snap
	}
	prev := d.snap
	if prev == nil {
		prev = d.base
	}
	slices.Sort(d.stale)
	rows := slices.Compact(d.stale)
	// The staging slices start non-nil so MergedRow always appends a copy
	// rather than returning a view of the base.
	sub := &CSR[T]{
		NRows:  Index(len(rows)),
		NCols:  d.ncols,
		RowPtr: make([]Index, len(rows)+1),
		Col:    make([]Index, 0, len(rows)),
		Val:    make([]T, 0, len(rows)),
	}
	for r, i := range rows {
		sub.Col, sub.Val = d.MergedRow(i, sub.Col, sub.Val)
		sub.RowPtr[r+1] = Index(len(sub.Col))
	}
	d.snap = SpliceRows(prev, rows, sub)
	d.stale = d.stale[:0]
	return d.snap
}

// Compact folds the pending logs into a fresh base CSR and clears them:
// the new base is the Current snapshot, which costs nothing more when it
// is already up to date. The matrix content is unchanged (Gen does not
// advance); only the storage identity of Base/Current moves. Returns the
// new base.
func (d *DeltaCSR[T]) Compact() *CSR[T] {
	if d.pending == 0 {
		return d.base
	}
	d.base = d.Current()
	d.logs = make(map[Index]*rowLog[T])
	d.pending = 0
	d.snap = nil
	return d.base
}

// Validate checks the overlay invariants: a valid sorted base, sorted
// duplicate-free logs whose deletes all name base entries, consistent
// pending and nnz accounting, and a valid merged matrix whose patched
// snapshot (Current) matches an independent full merge bit for bit. It
// reports the first violation; tests and the fuzzer use it as the
// corruption oracle.
func (d *DeltaCSR[T]) Validate() error {
	if err := d.base.Validate(); err != nil {
		return fmt.Errorf("matrix: delta base: %w", err)
	}
	if !d.base.IsSortedRows() {
		return fmt.Errorf("matrix: delta base rows unsorted")
	}
	pending, nnz := 0, d.base.NNZ()
	for i, l := range d.logs {
		if i < 0 || i >= d.nrows {
			return fmt.Errorf("matrix: delta log for out-of-range row %d", i)
		}
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
			if !d.baseHas(i, j) {
				nnz++
			}
		}
		for k, j := range l.del {
			if k > 0 && l.del[k-1] >= j {
				return fmt.Errorf("matrix: delta row %d delete log unsorted", i)
			}
			if !d.baseHas(i, j) {
				return fmt.Errorf("matrix: delta row %d deletes absent column %d", i, j)
			}
			if p := searchIndex(l.insCol, j); p < len(l.insCol) && l.insCol[p] == j {
				return fmt.Errorf("matrix: delta row %d column %d both inserted and deleted", i, j)
			}
			nnz--
		}
		pending += len(l.insCol) + len(l.del)
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
	if !slices.Equal(cur.RowPtr, full.RowPtr) || !slices.Equal(cur.Col, full.Col) ||
		!sameBits(cur.Val, full.Val) {
		return fmt.Errorf("matrix: delta snapshot differs from a full merge")
	}
	return nil
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
