package planner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"

	"repro/internal/matrix"
)

// memo keeps what a cache's hits derived from their operands, for exactly
// as long as those operands live: the fact that an M or A has sorted rows,
// and B's transpose for plans with an Inner block. A hit on the same
// arrays reuses the state instead of deriving it again; a hit on other
// arrays derives its own. State is stored only by cache hits, so a product
// seen once keeps nothing.
//
// Identity is exact: state serves only the very arrays it was derived
// from, the same data pointer and length (RowPtr and Col, and Val for a
// transpose), never a content fingerprint. There is one entry per
// pattern, and a transpose built from another Val replaces the entry's.
// The entry names its arrays through weak pointers, so it keeps no operand
// reachable, and a cleanup on the Col array removes it once Col is
// collected. The map is indexed by the arrays' addresses as plain
// integers, and because a collected array's address can be reused before
// its cleanup has run, state is trusted only while the entry's weak
// pointers still resolve to the arrays presented.
//
// Nothing is kept for a Col array under tinyBytes (the runtime may batch
// tiny pointer-free allocations, so their cleanups may never run), for
// arrays outside the Go heap (package-level data, which weak pointers
// cannot name), or for a transpose over maxKeptBytes, which serves its own
// call as on a cold one.
type memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	next    uint64 // id of the last entry made; guarded by mu
	// bytes is the transposes' bytes (atomic so Stats reads it unlocked);
	// maxBytes is the largest transpose kept.
	bytes    atomic.Int64
	maxBytes int64
}

const (
	maxKeptBytes = 64 << 20
	tinyBytes    = 16
)

// arrayID names a slice by its data address and length. The address is a
// plain integer, so a key keeps nothing reachable.
type arrayID struct {
	addr uintptr
	n    int
}

// memoKey names a pattern by its RowPtr and Col arrays.
type memoKey struct{ rowPtr, col arrayID }

// memoEntry is the state of one pattern. Entries are immutable once
// stored; an update stores a changed copy under the same id.
type memoEntry struct {
	id          uint64
	rowPtr, col weak.Pointer[byte]
	sorted      bool
	// csc is the transpose (a *matrix.CSC[T]) built from the Val array
	// val names, of valLen elements; bytes is its size.
	csc    any
	val    weak.Pointer[byte]
	valLen int
	bytes  int64
}

// operand is one lookup's key with its arrays' first elements (nil when
// empty), held only for the call.
type operand struct {
	key memoKey
	at  [2]*byte
}

func first[E any](s []E) (arrayID, *byte) {
	if len(s) == 0 {
		return arrayID{}, nil
	}
	p := unsafe.Pointer(&s[0])
	return arrayID{uintptr(p), len(s)}, (*byte)(p)
}

func patternOf(rowPtr, col []Index) operand {
	var o operand
	o.key.rowPtr, o.at[0] = first(rowPtr)
	o.key.col, o.at[1] = first(col)
	return o
}

func (mm *memo) init() {
	mm.entries = make(map[memoKey]*memoEntry)
	mm.maxBytes = maxKeptBytes
}

// names reports whether e was made for o's live arrays.
func (e *memoEntry) names(o operand) bool {
	return e.rowPtr.Value() == o.at[0] && e.col.Value() == o.at[1]
}

// lookup returns the entry for o's arrays, or nil.
func (mm *memo) lookup(o operand) *memoEntry {
	mm.mu.Lock()
	e := mm.entries[o.key]
	mm.mu.Unlock()
	if e == nil || !e.names(o) {
		return nil
	}
	return e
}

// inHeap reports whether p points into the Go heap, the only memory weak
// pointers can name: AddCleanup returns the zero Cleanup, a no-op, for
// other Go memory.
func inHeap(p *byte) bool {
	c := runtime.AddCleanup(p, func(struct{}) {}, struct{}{})
	c.Stop()
	return c != runtime.Cleanup{}
}

// update stores a copy of o's entry changed by set, or a new entry when o
// has none, whose Col cleanup removes it.
func (mm *memo) update(o operand, set func(*memoEntry)) {
	if o.at[0] == nil || o.key.col.n*int(unsafe.Sizeof(Index(0))) < tinyBytes {
		return
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	old := mm.entries[o.key]
	var e memoEntry
	if old != nil && old.names(o) {
		e = *old
	} else {
		if !inHeap(o.at[0]) || !inHeap(o.at[1]) {
			return
		}
		mm.next++
		e = memoEntry{id: mm.next, rowPtr: weak.Make(o.at[0]), col: weak.Make(o.at[1])}
		runtime.AddCleanup(o.at[1], forget, memoRef{weak.Make(mm), o.key, e.id})
	}
	set(&e)
	if old != nil {
		mm.bytes.Add(-old.bytes)
	}
	mm.entries[o.key] = &e
	mm.bytes.Add(e.bytes)
}

// memoRef is what a Col array's cleanup needs to find its entry. It names
// the memo weakly, so operands that outlive their cache do not keep the
// cache's state alive.
type memoRef struct {
	mm  weak.Pointer[memo]
	key memoKey
	id  uint64
}

// forget removes the entry r names once its Col array is collected,
// unless a new entry has taken the key.
func forget(r memoRef) {
	mm := r.mm.Value()
	if mm == nil {
		return
	}
	mm.mu.Lock()
	if e := mm.entries[r.key]; e != nil && e.id == r.id {
		delete(mm.entries, r.key)
		mm.bytes.Add(-e.bytes)
	}
	mm.mu.Unlock()
}

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
	_, val := first(b.Val)
	if e := c.memo.lookup(o); e != nil && e.valLen == len(b.Val) && e.val.Value() == val {
		if csc, ok := e.csc.(*matrix.CSC[T]); ok {
			c.cscReuses.Add(1)
			return csc
		}
	}
	csc := matrix.ToCSC(b)
	c.cscBuilds.Add(1)
	var zero T
	bytes := int64(unsafe.Sizeof(Index(0)))*int64(len(csc.ColPtr)+len(csc.Row)) + int64(unsafe.Sizeof(zero))*int64(len(csc.Val))
	if bytes <= c.memo.maxBytes && (val == nil || inHeap(val)) {
		c.memo.update(o, func(e *memoEntry) {
			e.csc, e.val, e.valLen, e.bytes = csc, weak.Make(val), len(b.Val), bytes
		})
	}
	return csc
}
