package server

// The client's side of operand references. A server issues a reference for
// every operand its intern table holds (see intern.go), and Client.Multiply
// sends that reference in place of the operand on later calls. The client
// never trusts pointer identity — the caller may have changed an operand's
// arrays since the last call — so it hashes every operand's content on
// every call, with a seed of its own, and looks the reference up by kind,
// dimensions, entry count and hash.
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

	"repro/internal/matrix"
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
	mu   sync.Mutex
	m    map[refKey]*list.Element
	lru  *list.List // front = most recent; values are *refEntry
}

type refEntry struct {
	key refKey
	ref uint64
}

func newRefTable() *refTable {
	return &refTable{seed: maphash.MakeSeed(), m: make(map[refKey]*list.Element), lru: list.New()}
}

func (t *refTable) matrixKey(a *matrix.CSR[float64]) refKey {
	return refKey{internKindMatrix, a.NRows, a.NCols, len(a.Col),
		operandHash(t.seed, internKindMatrix, a.NRows, a.NCols, a.RowPtr, a.Col, a.Val)}
}

// keys hashes the operands of req, M, A and B in that order. When B is A —
// the triangle-style products — its content is hashed once.
func (t *refTable) keys(req *wire.MultiplyReq) [3]refKey {
	m := req.M
	k := [3]refKey{
		{internKindPattern, m.NRows, m.NCols, len(m.Col),
			operandHash(t.seed, internKindPattern, m.NRows, m.NCols, m.RowPtr, m.Col, nil)},
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
