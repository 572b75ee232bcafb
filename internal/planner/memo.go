package planner

import (
	"unsafe"

	"repro/internal/matrix"
	"repro/internal/weakmemo"
)

// memo keeps what a cache's hits derived from their operands, for exactly
// as long as those operands live (see package weakmemo): the fact that an
// M or A has sorted rows, B's transpose for plans with an Inner block, and
// a graph's triangle-count operand (see Cache.PairOperand). A hit on the
// same arrays reuses the state instead of deriving it again; a hit on
// other arrays derives its own. State is stored only by cache hits, and a
// count operand only by a graph's second count, so a product or a graph
// seen once keeps nothing.
//
// There is one entry per pattern (RowPtr and Col), and a transpose built
// from another Val replaces the entry's: a transpose serves only the very
// Val array it was built from. A transpose or count operand over
// maxKeptBytes is not kept; it serves its own call as on a cold one.
type memo struct {
	m *weakmemo.Memo[memoEntry]
	// maxBytes is the largest transpose or count operand kept.
	maxBytes int64
}

const maxKeptBytes = 64 << 20

// memoEntry is the state of one pattern.
type memoEntry struct {
	sorted bool
	// csc is the transpose (a *matrix.CSC[T]) built from the Val array val
	// names; cscBytes is its size.
	csc      any
	val      weakmemo.Array
	cscBytes int64
	// counted is set by the pattern's first triangle count; pair is the
	// count operand a later count kept, pairBytes its size.
	counted   bool
	pair      *matrix.PairOperand
	pairBytes int64
}

func patternOf(rowPtr, col []Index) weakmemo.Operand { return weakmemo.Pattern(rowPtr, col) }

func (mm *memo) init() {
	mm.m = weakmemo.New(func(e *memoEntry) int64 { return e.cscBytes + e.pairBytes })
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
			c.memo.update(o, func(e *memoEntry) { e.csc, e.val, e.cscBytes = csc, val, bytes })
		}
	}
	return csc
}

// PairOperand returns the triangle-count operand of the square graph g
// (matrix.NewPairOperand), built on up to workers goroutines, or the one
// kept for g's arrays. As a plan's derived state is stored by its cache
// hits, not its miss, a count operand is kept by the second count of the
// same RowPtr and Col arrays, up to maxKeptBytes and while those arrays
// live, and every later count of them reuses it; the first count only
// notes that the arrays were counted, so a graph counted once keeps no
// operand. The kept X holds a copy of its Col trimmed to nnz(X).
//
// Two concurrent counts of arrays counted before may both build; the
// later store wins, and neither waits for the other. The operand is
// shared: the caller must not modify it.
func (c *Cache) PairOperand(g *matrix.Pattern, workers int) *matrix.PairOperand {
	o := patternOf(g.RowPtr, g.Col)
	e := c.memo.lookup(o)
	if e != nil && e.pair != nil {
		c.pairReuses.Add(1)
		return e.pair
	}
	op := matrix.NewPairOperand(g, workers)
	if e == nil || !e.counted {
		c.memo.update(o, func(e *memoEntry) { e.counted = true })
		return op
	}
	c.pairBuilds.Add(1)
	x := *op.X
	x.Col = make([]Index, len(op.X.Col)) // DegreeTril's Col sits in an nnz(g) array
	copy(x.Col, op.X.Col)
	op.X = &x
	if bytes := op.Bytes(); bytes <= c.memo.maxBytes {
		c.memo.update(o, func(e *memoEntry) { e.pair, e.pairBytes = op, bytes })
	}
	return op
}
