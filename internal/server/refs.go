package server

// The client's side of operand references. A server issues a reference for
// every operand its intern table holds (see intern.go), and Client.Multiply
// sends that reference in place of the operand on later calls. The client
// looks the reference up by the operand's kind, dimensions, entry count and
// a hash of its content, with a seed of its own.
//
// The client hashes each operand object once: a weak memo (package
// weakmemo) keeps the hash keyed on the operand's arrays — RowPtr and Col,
// and Val for a matrix — for as long as they live, so a hot call hashes
// nothing. That trusts the operand contract of masked.Session: an operand
// is not mutated, nor its memory reused for another, while the client may
// see it again. A caller that breaks it misroutes only its own request,
// to an operand it sent earlier, exactly as a hash collision would.
//
// A collision of that hash can only misroute the colliding client's own
// request: the server resolves nothing but references it issued, to
// operands it validated, so no request makes it compute on bytes it did
// not check. For N distinct operands of one kind and shape the chance of
// any collision is at most N²/2⁶⁴, and the seed never leaves the client.

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
	"repro/internal/weakmemo"
	"repro/internal/wire"
)

// refTableCap bounds the references a client remembers. It matches the
// server's default intern capacity. The client cannot see what the server
// evicts: a smaller table or byte budget there, or other clients'
// traffic, leaves references here that name nothing, and each costs one
// extra round trip (BenchmarkMultiplyTraffic/shared-churn).
const refTableCap = 128

// refKey identifies an operand's content: its kind, dimensions, entry
// count and seeded hash.
type refKey struct {
	kind         byte
	nrows, ncols int32
	nnz          int
	hash         uint64
}

// refTable is a client's bounded LRU from operand content to the reference
// the server issued for it.
type refTable struct {
	seed maphash.Seed
	// known is each live operand's key, by its arrays; hashed counts the
	// operands hashed.
	known  *weakmemo.Memo[refKey]
	hashed atomic.Int64
	mu     sync.Mutex
	m      map[refKey]*list.Element
	lru    *list.List // front = most recent; values are *refEntry
}

type refEntry struct {
	key refKey
	ref uint64
}

func newRefTable() *refTable {
	return &refTable{seed: maphash.MakeSeed(), known: weakmemo.New[refKey](nil),
		m: make(map[refKey]*list.Element), lru: list.New()}
}

// key returns an operand's key: the one known for its arrays and header,
// or else a hash of its content, which is then known.
func (t *refTable) key(kind byte, nrows, ncols int32, rowPtr, col []int32, val []float64) refKey {
	o := weakmemo.Pattern(rowPtr, col)
	if kind == internKindMatrix {
		o = weakmemo.Matrix(rowPtr, col, val)
	}
	if k := t.known.Lookup(o); k != nil && k.kind == kind && k.nrows == nrows && k.ncols == ncols {
		return *k
	}
	k := refKey{kind, nrows, ncols, len(col), operandHash(t.seed, kind, nrows, ncols, rowPtr, col, val)}
	t.hashed.Add(1)
	t.known.Update(o, func(v *refKey) { *v = k })
	return k
}

func (t *refTable) matrixKey(a *matrix.CSR[float64]) refKey {
	return t.key(internKindMatrix, a.NRows, a.NCols, a.RowPtr, a.Col, a.Val)
}

// keys returns the keys of req's operands, M, A and B in that order.
func (t *refTable) keys(req *wire.MultiplyReq) [3]refKey {
	m := req.M
	k := [3]refKey{
		t.key(internKindPattern, m.NRows, m.NCols, m.RowPtr, m.Col, nil),
		t.matrixKey(req.A),
	}
	if req.B == req.A {
		k[2] = k[1]
	} else {
		k[2] = t.matrixKey(req.B)
	}
	return k
}

// lookup returns the references known for keys, 0 where none is.
func (t *refTable) lookup(keys [3]refKey) [3]uint64 {
	var refs [3]uint64
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, k := range keys {
		if el, ok := t.m[k]; ok {
			t.lru.MoveToFront(el)
			refs[i] = el.Value.(*refEntry).ref
		}
	}
	return refs
}

// record stores the references a response reported for keys. A reference
// of 0 — the server retains no copy — forgets the key.
func (t *refTable) record(keys [3]refKey, refs [3]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, k := range keys {
		el, ok := t.m[k]
		switch {
		case refs[i] == 0:
			if ok {
				t.remove(el)
			}
		case ok:
			el.Value.(*refEntry).ref = refs[i]
			t.lru.MoveToFront(el)
		default:
			t.m[k] = t.lru.PushFront(&refEntry{key: k, ref: refs[i]})
			if t.lru.Len() > refTableCap {
				t.remove(t.lru.Back())
			}
		}
	}
}

// drop forgets the references a refused body carried, each unless a
// concurrent call has since recorded a different one for its key.
func (t *refTable) drop(keys [3]refKey, sent [3]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, k := range keys {
		if el, ok := t.m[k]; ok && sent[i] != 0 && el.Value.(*refEntry).ref == sent[i] {
			t.remove(el)
		}
	}
}

// remove drops one entry; the caller holds t.mu.
func (t *refTable) remove(el *list.Element) {
	t.lru.Remove(el)
	delete(t.m, el.Value.(*refEntry).key)
}
