package planner

import (
	"unsafe"

	"repro/internal/matrix"
	"repro/internal/weakmemo"
)

// memo keeps what a cache's hits derived from their operands, for exactly
// as long as those operands live (see package weakmemo): the fact that an
// M or A has sorted rows, and B's transpose for plans with an Inner block.
// A hit on the same arrays reuses the state instead of deriving it again;
// a hit on other arrays derives its own. State is stored only by cache
// hits, so a product seen once keeps nothing.
//
// There is one entry per pattern (RowPtr and Col), and a transpose built
// from another Val replaces the entry's: a transpose serves only the very
// Val array it was built from. A transpose over maxKeptBytes is not kept;
// it serves its own call as on a cold one.
type memo struct {
	m *weakmemo.Memo[memoEntry]
	// maxBytes is the largest transpose kept.
	maxBytes int64
}

const maxKeptBytes = 64 << 20

// memoEntry is the state of one pattern.
type memoEntry struct {
	sorted bool
	// csc is the transpose (a *matrix.CSC[T]) built from the Val array val
	// names; bytes is its size.
	csc   any
	val   weakmemo.Array
	bytes int64
}

func patternOf(rowPtr, col []Index) weakmemo.Operand { return weakmemo.Pattern(rowPtr, col) }

func (mm *memo) init() {
	mm.m = weakmemo.New(func(e *memoEntry) int64 { return e.bytes })
	mm.maxBytes = maxKeptBytes
}

// lookup returns the entry for o's arrays, or nil.
func (mm *memo) lookup(o weakmemo.Operand) *memoEntry { return mm.m.Lookup(o) }

// update stores a copy of o's entry changed by set, or a new entry.
func (mm *memo) update(o weakmemo.Operand, set func(*memoEntry)) { mm.m.Update(o, set) }

// rowsSorted reports whether m and a have sorted rows, for a hit on a plan
// that needs them. The scan is skipped for arrays an earlier hit found
// sorted; arrays found sorted now are remembered.
func (c *Cache) rowsSorted(m, a *matrix.Pattern, threads int) bool {
	known := func(p *matrix.Pattern) bool {
		e := c.memo.lookup(patternOf(p.RowPtr, p.Col))
		return e != nil && e.sorted
	}
	mOK, aOK := known(m), known(a)
	if mOK && aOK {
		c.sortSkips.Add(1)
		return true
	}
	c.sortChecks.Add(1)
	return (mOK || c.scanSorted(m, threads)) && (aOK || c.scanSorted(a, threads))
}

// scanSorted scans p for sorted rows and remembers its arrays if they are.
func (c *Cache) scanSorted(p *matrix.Pattern, threads int) bool {
	if !sortedRows(p, threads) {
		return false
	}
	c.memo.update(patternOf(p.RowPtr, p.Col), func(e *memoEntry) { e.sorted = true })
	return true
}

// cachedCSC returns B's transpose for a hit: the memo's when it was built
// from the same B arrays, otherwise a new one, which replaces the memo's.
// Two concurrent first hits may both build; the later store wins, and
// neither waits for the other.
func cachedCSC[T any](c *Cache, b *matrix.CSR[T]) *matrix.CSC[T] {
	o := patternOf(b.RowPtr, b.Col)
	if e := c.memo.lookup(o); e != nil && weakmemo.Names(e.val, b.Val) {
		if csc, ok := e.csc.(*matrix.CSC[T]); ok {
			c.cscReuses.Add(1)
			return csc
		}
	}
	csc := matrix.ToCSC(b)
	c.cscBuilds.Add(1)
	var zero T
	bytes := int64(unsafe.Sizeof(Index(0)))*int64(len(csc.ColPtr)+len(csc.Row)) + int64(unsafe.Sizeof(zero))*int64(len(csc.Val))
	if bytes <= c.memo.maxBytes {
		if val, ok := weakmemo.ArrayOf(b.Val); ok {
			c.memo.update(o, func(e *memoEntry) { e.csc, e.val, e.bytes = csc, val, bytes })
		}
	}
	return csc
}
