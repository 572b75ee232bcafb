package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"testing"

	"repro/internal/matrix"
	"repro/internal/wire"
	"repro/masked"
)

// TestInternStoresCopies checks the table never retains the decoded view
// it was handed: the canonical object is a private deep copy, so recycling
// (or clobbering) the request buffer the view aliased cannot corrupt it.
func TestInternStoresCopies(t *testing.T) {
	sv := New(Config{Threads: 1})
	g := masked.ErdosRenyi(64, 4, 7)
	canon, _, err := sv.internMatrix(g, "A")
	if err != nil {
		t.Fatal(err)
	}
	if canon == g {
		t.Fatal("intern returned the decoded view itself; want a private copy")
	}
	// Simulate the pooled body buffer being recycled and overwritten by a
	// later request: clobber every array the view exposes.
	for i := range g.Col {
		g.Col[i] = 1 << 30
	}
	for i := range g.RowPtr {
		g.RowPtr[i] = -1
	}
	if err := validateMatrix(canon); err != nil {
		t.Fatalf("canonical operand corrupted by clobbering the source view: %v", err)
	}
}

// TestInternSurvivesPartialFrameFailure is the end-to-end regression for
// the use-after-release review finding: a frame whose mask interns (fresh
// entry) but whose A operand fails validation must not leave the table
// holding views of a body buffer the handler recycles. After buffer-churn
// traffic, a request hitting that mask entry must still compute the right
// answer.
func TestInternSurvivesPartialFrameFailure(t *testing.T) {
	l, c := startLocal(t, Config{Threads: 2})
	ctx := context.Background()
	g := masked.ErdosRenyi(128, 6, 17)
	gp := g.Pattern()

	// Frame with a valid, previously unseen mask and a semantically broken
	// A: the mask interns, then A's validation fails the request with 400.
	bad := g.Clone()
	bad.Col[0] = 100000
	_, err := c.Multiply(ctx, &wire.MultiplyReq{M: gp, A: bad, B: g})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("broken A: %v, want StatusError 400", err)
	}

	// Churn the body pool so a recycled buffer gets overwritten with other
	// operand bytes.
	for seed := uint64(0); seed < 4; seed++ {
		h := masked.ErdosRenyi(96, 5, 20+seed)
		if _, err := c.Multiply(ctx, &wire.MultiplyReq{M: h.Pattern(), A: h, B: h}); err != nil {
			t.Fatalf("churn %d: %v", seed, err)
		}
	}

	// Re-use the mask from the failed frame; the intern hit must serve an
	// intact canonical copy, bit-identical to the in-process result.
	res, err := c.Multiply(ctx, &wire.MultiplyReq{M: gp, A: g, B: g})
	if err != nil {
		t.Fatal(err)
	}
	ref := masked.NewSession(masked.WithThreads(2))
	want, err := ref.Multiply(ctx, gp, g, g)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(res.C, want, func(a, b float64) bool { return a == b }) {
		t.Fatal("result through the recycled-mask path differs from in-process")
	}
	if m := l.Server.Metrics(); m.InternBytes <= 0 {
		t.Fatalf("intern bytes gauge %d, want > 0", m.InternBytes)
	}
}

// TestInternByteBound checks the table evicts past the retained-bytes
// bound and refuses entries that alone exceed it.
func TestInternByteBound(t *testing.T) {
	mk := func(seed uint64) *matrix.Pattern {
		return masked.ErdosRenyi(64, 4, seed).Pattern()
	}
	one := patternSize(mk(0))
	tab := newInternTable(100, 3*one)
	for seed := uint64(0); seed < 8; seed++ {
		p := mk(seed)
		tab.insert(tab.patternKey(p), p.Clone(), patternSize(p))
	}
	st := tab.stats()
	if st.Bytes > 3*one {
		t.Fatalf("retained %d bytes, bound %d", st.Bytes, 3*one)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite exceeding the byte bound")
	}
	if st.Entries == 0 {
		t.Fatal("byte-bound eviction emptied the table")
	}

	// An operand bigger than the whole bound is served but never stored.
	big := masked.ErdosRenyi(512, 16, 9).Pattern()
	before := tab.stats()
	got, ref := tab.insert(tab.patternKey(big), big, patternSize(big))
	if got != big || ref != 0 {
		t.Fatal("oversized insert did not return the caller's object")
	}
	if after := tab.stats(); after.Entries != before.Entries || after.Bytes != before.Bytes {
		t.Fatalf("oversized operand was stored: %+v -> %+v", before, after)
	}
}

// TestInternForcedKeyNeverServesOtherBytes stores two different operands
// under one forced key: a lookup serves only byte-equal content, and an
// insert of the other operand replaces the colliding entry.
func TestInternForcedKeyNeverServesOtherBytes(t *testing.T) {
	tab := newInternTable(8, 0)
	a := masked.ErdosRenyi(32, 3, 1)
	b := masked.ErdosRenyi(32, 3, 2)
	const key = internKey(42)

	if got, _ := tab.insert(key, a.Clone(), matrixSize(a)); !sameOperand(got, a) {
		t.Fatal("insert returned content different from the clone")
	}
	if _, _, ok := tab.lookup(key, b); ok {
		t.Fatal("lookup served a's bytes for probe b under a shared key")
	}
	if v, _, ok := tab.lookup(key, a); !ok || !sameOperand(v, a) {
		t.Fatalf("lookup(a) = %v, %v; want a byte-equal hit", v, ok)
	}
	// Same key, other kind: a pattern must not be served a matrix.
	if _, _, ok := tab.lookup(key, a.Pattern()); ok {
		t.Fatal("pattern probe hit a matrix entry")
	}

	if got, _ := tab.insert(key, b.Clone(), matrixSize(b)); !sameOperand(got, b) {
		t.Fatal("insert under a colliding key returned the old operand")
	}
	if _, _, ok := tab.lookup(key, a); ok {
		t.Fatal("replaced operand still served")
	}
	if v, _, ok := tab.lookup(key, b); !ok || !sameOperand(v, b) {
		t.Fatal("replacing operand not served")
	}
	if st := tab.stats(); st.Entries != 1 || st.Bytes != matrixSize(b) {
		t.Fatalf("after replacement: %+v, want 1 entry of %d bytes", st, matrixSize(b))
	}
}

// TestInternFloatBitsDistinct checks operands that differ only in the sign
// of a zero or in a NaN payload intern as distinct entries, each serving
// its own bits.
func TestInternFloatBitsDistinct(t *testing.T) {
	sv := New(Config{Threads: 1})
	base := masked.ErdosRenyi(16, 2, 3)
	vals := []float64{
		0,
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff8_0000_0000_0001),
		math.Float64frombits(0x7ff8_0000_0000_0002),
	}
	var canon []*matrix.CSR[float64]
	for _, v := range vals {
		g := base.Clone()
		g.Val[0] = v
		c, _, err := sv.internMatrix(g, "A")
		if err != nil {
			t.Fatal(err)
		}
		canon = append(canon, c)
	}
	if st := sv.intern.stats(); st.Entries != len(vals) || st.Misses != int64(len(vals)) {
		t.Fatalf("stats %+v, want %d distinct entries from %d misses", st, len(vals), len(vals))
	}
	for i, v := range vals {
		g := base.Clone()
		g.Val[0] = v
		c, _, err := sv.internMatrix(g, "A")
		if err != nil {
			t.Fatal(err)
		}
		if c != canon[i] || math.Float64bits(c.Val[0]) != math.Float64bits(v) {
			t.Fatalf("value %016x: served %016x from another entry",
				math.Float64bits(v), math.Float64bits(c.Val[0]))
		}
	}
	if st := sv.intern.stats(); st.Hits != int64(len(vals)) {
		t.Fatalf("hits %d, want %d", st.Hits, len(vals))
	}
}

// TestInternCollisionRoundTrip plants decoys under the keys the server
// will compute for a request's operands, then checks the wire product
// stays bit-identical to the in-process one: the colliding entries are
// misses, never served, and are replaced by the real operands.
func TestInternCollisionRoundTrip(t *testing.T) {
	l, c := startLocal(t, Config{Threads: 2})
	ctx := context.Background()
	g := masked.ErdosRenyi(128, 6, 31)
	gp := g.Pattern()
	decoy := masked.ErdosRenyi(128, 6, 32)
	tab := l.Server.intern
	tab.insert(tab.matrixKey(g), decoy.Clone(), matrixSize(decoy))
	tab.insert(tab.patternKey(gp), decoy.Pattern().Clone(), patternSize(decoy.Pattern()))

	ref := masked.NewSession(masked.WithThreads(2))
	want, err := ref.Multiply(ctx, gp, g, g)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		res, err := c.Multiply(ctx, &wire.MultiplyReq{M: gp, A: g, B: g})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !matrix.Equal(res.C, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("round %d: product after a forced collision differs from in-process", round)
		}
	}
	// Round 0: mask and A miss (replacing the decoys), B hits A's fresh
	// entry; round 1 hits all three.
	if m := l.Server.Metrics(); m.InternMisses != 2 || m.InternHits != 4 || m.InternEntries != 2 {
		t.Fatalf("intern metrics %+v, want 2 misses, 4 hits, 2 entries", m)
	}
}

// FuzzInternTable runs arbitrary insert/lookup sequences over a small
// operand pool — byte-identical copies, variants one byte apart, and
// operands forced under equal keys — against a tiny bounded table. A hit
// must be byte-equal to its probe, an insert must return byte-equal
// content, the entry and byte bounds must hold, and nothing may panic.
func FuzzInternTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0x80, 0x81, 0x00, 0x01, 0x82, 0x03, 0x43, 0xc4, 0x45})
	f.Add([]byte{0xff, 0x7f, 0x3f, 0xbf, 0x1f, 0x9f, 0x0f, 0x8f, 0x07, 0x87})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pool []any
		for seed := uint64(0); seed < 3; seed++ {
			g := masked.ErdosRenyi(6, 2, seed)
			pool = append(pool, g, g.Clone(), g.Pattern())
			v := g.Clone()
			v.Val[len(v.Val)-1] = math.Float64frombits(math.Float64bits(v.Val[len(v.Val)-1]) ^ 1)
			c := g.Clone()
			c.Col[0] ^= 1
			pool = append(pool, v, c)
		}
		size := func(op any) int64 {
			if p, ok := op.(*matrix.Pattern); ok {
				return patternSize(p)
			}
			return matrixSize(op.(*matrix.CSR[float64]))
		}
		key := func(tab *internTable, op any) internKey {
			if p, ok := op.(*matrix.Pattern); ok {
				return tab.patternKey(p)
			}
			return tab.matrixKey(op.(*matrix.CSR[float64]))
		}
		clone := func(op any) any {
			if p, ok := op.(*matrix.Pattern); ok {
				return p.Clone()
			}
			return op.(*matrix.CSR[float64]).Clone()
		}
		const capacity = 3
		maxBytes := 2*size(pool[0]) + size(pool[2])
		tab := newInternTable(capacity, maxBytes)
		for _, b := range data {
			op := pool[int(b&0x3f)%len(pool)]
			k := key(tab, op)
			if b&0x40 != 0 {
				k = internKey(b & 3) // forced: unrelated operands share keys
			}
			if b&0x80 != 0 {
				if got, _ := tab.insert(k, clone(op), size(op)); !sameOperand(got, op) {
					t.Fatalf("insert returned content different from %T", op)
				}
			} else if v, _, ok := tab.lookup(k, op); ok && !sameOperand(v, op) {
				t.Fatalf("lookup hit served bytes different from the probe %T", op)
			}
			st := tab.stats()
			if st.Entries > capacity || st.Bytes > maxBytes {
				t.Fatalf("bounds exceeded: %+v (cap %d, maxBytes %d)", st, capacity, maxBytes)
			}
			var sum int64
			for el := tab.lru.Front(); el != nil; el = el.Next() {
				sum += el.Value.(*internEntry).size
			}
			if sum != st.Bytes || len(tab.entries) != st.Entries {
				t.Fatalf("table bookkeeping drifted: %d bytes listed vs %d counted, %d keys vs %d entries",
					sum, st.Bytes, len(tab.entries), st.Entries)
			}
		}
	})
}
