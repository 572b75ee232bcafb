package server

// Operand interning. The session's plan cache and single-flight coalescing
// both key on operand *identity* — which serves in-process callers that
// re-submit the same objects, but a wire request decodes fresh objects
// every time, so nothing would ever hit. The intern table restores
// identity across the network: each decoded operand is keyed by a 64-bit
// hash/maphash of its kind, dimensions and CSR arrays, and a request whose
// operand hashes to a stored entry *and* matches it byte for byte is
// rewritten to the canonical decoded object. Serving workloads are exactly
// the re-multiply-against-a-static-graph loops the session is built for,
// so the hot operands intern once and every later request reuses their
// plans, coalesces with identical in-flight work, and skips semantic
// re-validation (the canonical object was validated when it was first
// admitted).
//
// The hash only finds the candidate; equality is decided by comparing the
// raw bytes, floats included (so -0.0, +0.0 and distinct NaN payloads stay
// distinct operands). A hash match whose bytes differ is a miss and is
// never served; inserting the new operand replaces the colliding entry.
// Each table draws its own random seed, so an adversary cannot precompute
// colliding operands to flood one key. A hit therefore costs one hashing
// pass plus one comparison pass over the operand, both memory-bandwidth
// bound, and the comparison runs outside the table mutex: canonical copies
// are immutable, so reading one after a concurrent eviction is safe.
//
// The table owns a private deep copy of every canonical operand, made at
// insertion time. Decoded operands alias the pooled request body they
// arrived in, and storing such a view would pin the whole body (up to
// MaxBodyBytes) until eviction — and corrupt the canonical arrays if the
// buffer were ever recycled while the entry lived. Copying decouples the
// two lifetimes completely: handlers always recycle their body buffer, and
// an interned operand retains exactly its own bytes. The copy runs only on
// an intern miss, alongside the O(nnz) validation the miss already pays.
//
// Residency is bounded twice: by entry count (LRU past cap) and by total
// retained bytes (LRU past maxBytes), so a stream of many small operands
// and a stream of few huge ones are both capped. An operand larger than
// the byte bound by itself is served but never stored.
//
// Every entry also gets a reference when it is inserted: a 64-bit value a
// client may send in place of the operand (wire.FrameMultiplyRefReq). A
// reference resolves under the table mutex straight to the canonical
// object — no hash, no compare, no validation, because the object was
// validated when it was admitted — and dies with its entry. References are
// a keyed permutation of a counter, so they look random, cannot be
// predicted without the table's seed, and are never reused. The table
// resolves only references it issued itself, so a reference can name
// nothing but bytes the server validated; a forged or evicted one is a
// miss, and the client resends the operand inline.

import (
	"bytes"
	"container/list"
	"encoding/binary"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/matrix"
)

// internKey locates an operand's candidate entry: a seeded 64-bit hash of
// a kind tag, the dimensions, and the raw CSR array bytes. Equal keys do
// not imply equal operands; lookup and insert confirm by comparing bytes.
type internKey uint64

const (
	internKindPattern = 0
	internKindMatrix  = 1
)

// internTable is a bounded LRU of canonical decoded operands.
type internTable struct {
	seed     maphash.Seed
	mu       sync.Mutex
	cap      int
	maxBytes int64
	bytes    int64
	entries  map[internKey]*list.Element
	refs     map[uint64]*list.Element // the same elements, by reference
	issued   uint64                   // references issued so far
	lru      *list.List               // front = most recent; values are *internEntry

	hits, misses, evictions atomic.Int64
	refHits, refMisses      atomic.Int64
}

type internEntry struct {
	key  internKey
	ref  uint64
	val  any // *matrix.Pattern or *matrix.CSR[float64]; never mutated
	size int64
}

// newInternTable returns a table bounded to capacity entries and maxBytes
// retained operand bytes (maxBytes <= 0 means entry-bounded only), or nil
// (pass-through interning) when capacity <= 0.
func newInternTable(capacity int, maxBytes int64) *internTable {
	if capacity <= 0 {
		return nil
	}
	return &internTable{
		seed:     maphash.MakeSeed(),
		cap:      capacity,
		maxBytes: maxBytes,
		entries:  make(map[internKey]*list.Element, capacity),
		refs:     make(map[uint64]*list.Element, capacity),
		lru:      list.New(),
	}
}

// i32Bytes and f64Bytes reinterpret slice payloads as raw bytes for
// hashing and comparison — read-only views, never stored.
func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func f64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

// operandHash hashes one operand under seed: each array is hashed in one
// call, and the kind, dimensions and array hashes are hashed again. The
// intern table keys entries with it, and the client keys its references.
func operandHash(seed maphash.Seed, kind byte, nrows, ncols int32, rowptr, col []int32, val []float64) uint64 {
	var b [9 + 3*8]byte
	b[0] = kind
	binary.LittleEndian.PutUint32(b[1:], uint32(nrows))
	binary.LittleEndian.PutUint32(b[5:], uint32(ncols))
	binary.LittleEndian.PutUint64(b[9:], maphash.Bytes(seed, i32Bytes(rowptr)))
	binary.LittleEndian.PutUint64(b[17:], maphash.Bytes(seed, i32Bytes(col)))
	binary.LittleEndian.PutUint64(b[25:], maphash.Bytes(seed, f64Bytes(val)))
	return maphash.Bytes(seed, b[:])
}

// sameOperand reports whether a and b are operands of the same kind with
// byte-identical dimensions and arrays.
func sameOperand(a, b any) bool {
	switch a := a.(type) {
	case *matrix.Pattern:
		b, ok := b.(*matrix.Pattern)
		return ok && a.NRows == b.NRows && a.NCols == b.NCols &&
			bytes.Equal(i32Bytes(a.RowPtr), i32Bytes(b.RowPtr)) &&
			bytes.Equal(i32Bytes(a.Col), i32Bytes(b.Col))
	case *matrix.CSR[float64]:
		b, ok := b.(*matrix.CSR[float64])
		return ok && a.NRows == b.NRows && a.NCols == b.NCols &&
			bytes.Equal(i32Bytes(a.RowPtr), i32Bytes(b.RowPtr)) &&
			bytes.Equal(i32Bytes(a.Col), i32Bytes(b.Col)) &&
			bytes.Equal(f64Bytes(a.Val), f64Bytes(b.Val))
	}
	return false
}

// lookup returns the canonical object stored under key, and its
// reference, when it is byte-equal to probe. Lookup and insert are
// separate so the caller can run the O(nnz) semantic validation only
// between a miss and the insertion: a hit is an operand that was validated
// when first admitted, and an invalid operand never enters the table.
//
// The entry is touched in the LRU before its bytes are confirmed; a
// colliding entry that gets touched is replaced by the insert that follows
// the miss anyway.
func (t *internTable) lookup(key internKey, probe any) (any, uint64, bool) {
	t.mu.Lock()
	var e *internEntry
	if el, ok := t.entries[key]; ok {
		t.lru.MoveToFront(el)
		e = el.Value.(*internEntry)
	}
	t.mu.Unlock()
	if e != nil && sameOperand(e.val, probe) {
		t.hits.Add(1)
		return e.val, e.ref, true
	}
	t.misses.Add(1)
	return nil, 0, false
}

// resolve returns the canonical object issued under ref when the table
// still holds it and it is a T. Resolving touches the entry in the LRU and
// counts as an intern hit and a reference hit; anything else is a
// reference miss. The server.intern.ref_miss chaos point forces a miss,
// as if the entry had just been evicted.
func resolve[T *matrix.Pattern | *matrix.CSR[float64]](t *internTable, ref uint64) (T, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	var val T
	el, ok := t.refs[ref]
	if ok {
		val, ok = el.Value.(*internEntry).val.(T)
	}
	if ok && !faultinject.Fire(faultinject.PointInternRefMiss) {
		t.lru.MoveToFront(el)
		t.mu.Unlock()
		t.hits.Add(1)
		t.refHits.Add(1)
		return val, true
	}
	t.mu.Unlock()
	t.refMisses.Add(1)
	return nil, false
}

// insert records clone — a private deep copy the table will own, size
// bytes of arrays — as key's canonical object and returns the canonical
// object and its reference: clone and a fresh reference, or the raced
// winner when a concurrent byte-equal duplicate inserted first. A
// different operand stored under the same key is replaced, and its
// reference dies with it. An operand larger than the byte bound by itself
// is returned un-stored, with reference 0.
func (t *internTable) insert(key internKey, clone any, size int64) (any, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[key]; ok {
		if e := el.Value.(*internEntry); sameOperand(e.val, clone) {
			t.lru.MoveToFront(el)
			return e.val, e.ref
		}
		t.remove(el)
	}
	if t.maxBytes > 0 && size > t.maxBytes {
		return clone, 0
	}
	ref := t.newRef()
	el := t.lru.PushFront(&internEntry{key: key, ref: ref, val: clone, size: size})
	t.entries[key] = el
	t.refs[ref] = el
	t.bytes += size
	for t.lru.Len() > t.cap || (t.maxBytes > 0 && t.bytes > t.maxBytes && t.lru.Len() > 1) {
		t.remove(t.lru.Back())
		t.evictions.Add(1)
	}
	return clone, ref
}

// newRef issues the next reference: the issue counter through a
// four-round Feistel network whose round function is maphash under the
// table's seed. A Feistel network is a permutation whatever its round
// function, so references never repeat, and without the seed they cannot
// be predicted. 0 means "not retained" on the wire and is skipped. The
// caller holds t.mu.
func (t *internTable) newRef() uint64 {
	for {
		t.issued++
		hi, lo := uint32(t.issued>>32), uint32(t.issued)
		for round := byte(0); round < 4; round++ {
			var b [5]byte
			binary.LittleEndian.PutUint32(b[:], lo)
			b[4] = round
			hi, lo = lo, hi^uint32(maphash.Bytes(t.seed, b[:]))
		}
		if ref := uint64(hi)<<32 | uint64(lo); ref != 0 {
			return ref
		}
	}
}

// remove drops one entry and its reference; the caller holds t.mu.
func (t *internTable) remove(el *list.Element) {
	t.lru.Remove(el)
	e := el.Value.(*internEntry)
	delete(t.entries, e.key)
	delete(t.refs, e.ref)
	t.bytes -= e.size
}

// patternKey and matrixKey key the two operand kinds; patternSize and
// matrixSize report the array bytes a stored copy retains.
func (t *internTable) patternKey(p *matrix.Pattern) internKey {
	return internKey(operandHash(t.seed, internKindPattern, p.NRows, p.NCols, p.RowPtr, p.Col, nil))
}

func (t *internTable) matrixKey(a *matrix.CSR[float64]) internKey {
	return internKey(operandHash(t.seed, internKindMatrix, a.NRows, a.NCols, a.RowPtr, a.Col, a.Val))
}

func patternSize(p *matrix.Pattern) int64 {
	return 4 * int64(len(p.RowPtr)+len(p.Col))
}

func matrixSize(a *matrix.CSR[float64]) int64 {
	return 4*int64(len(a.RowPtr)+len(a.Col)) + 8*int64(len(a.Val))
}

// internStats is the table's counter snapshot for /metrics.
type internStats struct {
	Hits, Misses, Evictions int64
	RefHits, RefMisses      int64
	Entries                 int
	Bytes                   int64
}

func (t *internTable) stats() internStats {
	if t == nil {
		return internStats{}
	}
	t.mu.Lock()
	n, b := t.lru.Len(), t.bytes
	t.mu.Unlock()
	return internStats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Evictions: t.evictions.Load(),
		RefHits:   t.refHits.Load(),
		RefMisses: t.refMisses.Load(),
		Entries:   n,
		Bytes:     b,
	}
}
