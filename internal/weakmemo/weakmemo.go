// Package weakmemo keeps a value per operand for exactly as long as the
// operand's arrays live. The plan cache keeps there what its hits derive
// from an operand (the fact that it has sorted rows, B's transpose), and
// the wire client the content hash of each operand it sends, so neither
// derives it again for the same arrays.
//
// Identity is exact: a value serves only the very arrays it was stored
// for, the same data pointer and length of each, never a content
// fingerprint. So an operand must not be mutated, nor its memory reused
// for another operand, while its memo may see it again.
//
// An entry names its arrays through weak pointers, so it keeps no operand
// reachable, and a cleanup on its Col array, and on its Val array when it
// has one, removes it once that array is collected: a new Val under a live
// pattern is common (values change, the pattern stays), a new RowPtr under
// a live Col is not. The map is indexed by the arrays' addresses as plain
// integers, and because a collected array's address can be reused before
// its cleanup has run, a value is trusted only while the entry's weak
// pointers still resolve to the arrays presented.
//
// Nothing is kept for an operand whose Col or Val array is under tinyBytes
// (the runtime may batch tiny pointer-free allocations, so their cleanups
// may never run), or whose arrays lie outside the Go heap (package-level
// data, which weak pointers cannot name).
package weakmemo

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"
)

const tinyBytes = 16

// arrayID names a slice by its data address and length. The address is a
// plain integer, so a key keeps nothing reachable.
type arrayID struct {
	addr uintptr
	n    int
}

// key names an operand by its RowPtr, Col and Val arrays; a pattern's Val
// is the zero arrayID.
type key [3]arrayID

// Operand is one lookup's or update's operand: its key, with its arrays'
// first elements (nil when empty) held only for the call.
type Operand struct {
	key key
	at  [3]*byte
	// keep is false when the operand's cleanups may never run.
	keep bool
}

func first[E any](s []E) (arrayID, *byte, int) {
	if len(s) == 0 {
		return arrayID{}, nil, 0
	}
	p := unsafe.Pointer(&s[0])
	return arrayID{uintptr(p), len(s)}, (*byte)(p), len(s) * int(unsafe.Sizeof(s[0]))
}

// Pattern is the operand of a sparsity pattern's RowPtr and Col arrays.
func Pattern(rowPtr, col []int32) Operand {
	var o Operand
	var n int
	o.key[0], o.at[0], _ = first(rowPtr)
	o.key[1], o.at[1], n = first(col)
	o.keep = o.at[0] != nil && n >= tinyBytes
	return o
}

// Matrix is the operand of a matrix's RowPtr, Col and Val arrays.
func Matrix[E any](rowPtr, col []int32, val []E) Operand {
	o := Pattern(rowPtr, col)
	var n int
	o.key[2], o.at[2], n = first(val)
	o.keep = o.keep && n >= tinyBytes
	return o
}

// Memo maps live operands to values of type V. It is safe for concurrent
// use.
type Memo[V any] struct {
	mu      sync.Mutex
	entries map[key]*entry[V]
	next    uint64 // id of the last entry made; guarded by mu
	// size reports the bytes a value holds, nil for none; bytes is their
	// sum over the entries kept (atomic so Bytes reads it unlocked).
	size  func(*V) int64
	bytes atomic.Int64
}

// entry is one operand's value. Entries are immutable once stored; an
// update stores a changed copy under the same id.
type entry[V any] struct {
	id     uint64
	arrays [3]weak.Pointer[byte]
	v      V
}

// New returns an empty memo. size, when not nil, reports the bytes a value
// holds; Bytes sums it over the values kept.
func New[V any](size func(*V) int64) *Memo[V] {
	return &Memo[V]{entries: make(map[key]*entry[V]), size: size}
}

// names reports whether e was made for o's live arrays.
func (e *entry[V]) names(o *Operand) bool {
	for i, p := range o.at {
		if e.arrays[i].Value() != p {
			return false
		}
	}
	return true
}

// Lookup returns the value kept for o's arrays, or nil. The value is
// shared: the caller must not modify it.
func (m *Memo[V]) Lookup(o Operand) *V {
	m.mu.Lock()
	e := m.entries[o.key]
	m.mu.Unlock()
	if e == nil || !e.names(&o) {
		return nil
	}
	return &e.v
}

// Update stores a copy of o's value changed by set, or a new value
// (starting from V's zero value) when o has none. It keeps nothing for an
// operand whose cleanups may never run or that weak pointers cannot name.
func (m *Memo[V]) Update(o Operand, set func(*V)) {
	if !o.keep {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.entries[o.key]
	var e entry[V]
	if old != nil && old.names(&o) {
		e = *old
	} else {
		for _, p := range o.at {
			if p != nil && !inHeap(p) {
				return
			}
		}
		m.next++
		e = entry[V]{id: m.next}
		for i, p := range o.at {
			if p != nil {
				e.arrays[i] = weak.Make(p)
			}
		}
		r := ref[V]{weak.Make(m), o.key, e.id}
		runtime.AddCleanup(o.at[1], forget[V], r)
		if o.at[2] != nil {
			runtime.AddCleanup(o.at[2], forget[V], r)
		}
	}
	set(&e.v)
	if old != nil {
		m.bytes.Add(-m.sizeOf(&old.v))
	}
	m.entries[o.key] = &e
	m.bytes.Add(m.sizeOf(&e.v))
}

func (m *Memo[V]) sizeOf(v *V) int64 {
	if m.size == nil {
		return 0
	}
	return m.size(v)
}

// Len returns the number of entries kept.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Bytes returns the bytes the kept values hold, as New's size reports
// them.
func (m *Memo[V]) Bytes() int64 { return m.bytes.Load() }

// ref is what an array's cleanup needs to find its entry. It names the
// memo weakly, so operands that outlive their memo do not keep the memo's
// values alive.
type ref[V any] struct {
	m   weak.Pointer[Memo[V]]
	key key
	id  uint64
}

// forget removes the entry r names once one of its arrays is collected,
// unless a new entry has taken the key.
func forget[V any](r ref[V]) {
	m := r.m.Value()
	if m == nil {
		return
	}
	m.mu.Lock()
	if e := m.entries[r.key]; e != nil && e.id == r.id {
		delete(m.entries, r.key)
		m.bytes.Add(-m.sizeOf(&e.v))
	}
	m.mu.Unlock()
}

// inHeap reports whether p points into the Go heap, the only memory weak
// pointers can name: AddCleanup returns the zero Cleanup, a no-op, for
// other Go memory.
func inHeap(p *byte) bool {
	c := runtime.AddCleanup(p, func(struct{}) {}, struct{}{})
	c.Stop()
	return c != runtime.Cleanup{}
}

// Array is one array's identity, held weakly: its first element and its
// length. The zero Array names every empty array.
type Array struct {
	p weak.Pointer[byte]
	n int
}

// ArrayOf returns s's identity, or false when a weak pointer cannot name s
// (it lies outside the Go heap).
func ArrayOf[E any](s []E) (Array, bool) {
	_, p, _ := first(s)
	if p == nil {
		return Array{}, true
	}
	if !inHeap(p) {
		return Array{}, false
	}
	return Array{weak.Make(p), len(s)}, true
}

// Names reports whether a names s: s has a's length, and its first
// element is a's, still live.
func Names[E any](a Array, s []E) bool {
	_, p, _ := first(s)
	return a.n == len(s) && a.p.Value() == p
}
