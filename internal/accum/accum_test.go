package accum

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func add(a, b float64) float64 { return a + b }

// TestMSAAutomaton walks the Fig. 3 state machine explicitly.
func TestMSAAutomaton(t *testing.T) {
	s := NewMSA[float64](10)
	// NotAllowed: insert discarded.
	if s.Insert(3, 1.0, add) {
		t.Fatal("insert into NotAllowed must be discarded")
	}
	if _, ok := s.Remove(3); ok {
		t.Fatal("remove of never-set key must return none")
	}
	// Allowed: first insert stores.
	s.SetAllowed(3)
	if s.State(3) != Allowed {
		t.Fatal("state should be Allowed")
	}
	if !s.Insert(3, 2.0, add) {
		t.Fatal("insert into Allowed must be kept")
	}
	if s.State(3) != Set {
		t.Fatal("state should be Set")
	}
	// Set: further inserts accumulate.
	if !s.Insert(3, 5.0, add) {
		t.Fatal("insert into Set must be kept")
	}
	v, ok := s.Remove(3)
	if !ok || v != 7 {
		t.Fatalf("remove = %v,%v want 7,true", v, ok)
	}
	// Remove resets to NotAllowed.
	if s.State(3) != NotAllowed {
		t.Fatal("remove must reset state")
	}
	if s.Insert(3, 1.0, add) {
		t.Fatal("after remove, inserts discarded again")
	}
	// Allowed but never inserted: Remove returns none and clears the mark.
	s.SetAllowed(5)
	if _, ok := s.Remove(5); ok {
		t.Fatal("allowed-but-empty remove must return none")
	}
	if s.State(5) != NotAllowed {
		t.Fatal("remove must clear Allowed mark")
	}
}

func TestMSAComplementMode(t *testing.T) {
	s := NewMSA[float64](10)
	s.SetNotAllowed(2)
	if s.InsertC(2, 1.0, add) {
		t.Fatal("excluded key must discard")
	}
	if !s.InsertC(4, 3.0, add) {
		t.Fatal("default key must accept under complement")
	}
	if !s.InsertC(4, 4.0, add) {
		t.Fatal("second insert accumulates")
	}
	if got := s.Value(4); got != 7 {
		t.Fatalf("value = %v, want 7", got)
	}
	ins := s.Inserted()
	if len(ins) != 1 || ins[0] != 4 {
		t.Fatalf("inserted log = %v", ins)
	}
	s.ResetC([]Index{2})
	if s.State(2) != NotAllowed || s.State(4) != NotAllowed {
		t.Fatal("ResetC must clear all state")
	}
	if len(s.Inserted()) != 0 {
		t.Fatal("ResetC must clear the log")
	}
	// After reset, the accumulator is reusable in normal mode.
	s.SetAllowed(4)
	if !s.Insert(4, 1.0, add) {
		t.Fatal("reuse after complement failed")
	}
	s.Remove(4)
}

func TestMSAResize(t *testing.T) {
	s := NewMSA[float64](4)
	if s.Len() != 4 {
		t.Fatal("len")
	}
	s.Resize(100)
	if s.Len() != 100 {
		t.Fatal("resize up")
	}
	s.Resize(10) // no shrink
	if s.Len() != 100 {
		t.Fatal("must not shrink")
	}
	s.SetAllowed(99)
	if !s.Insert(99, 1, add) {
		t.Fatal("insert at new capacity")
	}
}

// TestMSAOrderInserted: the complement insertion log comes out of the
// two-level bitmap walk (or, for short rows over wide spans, the sort
// fallback) in the order slices.Sort gives, and every row leaves each
// bitmap and summary word zero and each state NotAllowed, also across a
// Resize. Widths cover one word, one summary word and many of either.
func TestMSAOrderInserted(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	s := NewMSA[float64](1)
	for _, ncols := range []int{1, 63, 64, 65, 4096, 4097, 5000, 70001} {
		s.Resize(ncols)
		assertMSAClean(t, s, ncols)
		if want := sliceBytes(s.state) + sliceBytes(s.value) + sliceBytes(s.inserted) +
			sliceBytes(s.bits) + sliceBytes(s.summary); s.Bytes() != want {
			t.Fatalf("ncols=%d: Bytes() = %d, want %d with the bitmap and summary", ncols, s.Bytes(), want)
		}
		if len(s.bits)*64 < ncols || len(s.summary)*64 < len(s.bits) {
			t.Fatalf("ncols=%d: %d bitmap and %d summary words cover too few columns", ncols, len(s.bits), len(s.summary))
		}
		for row := 0; row < 300; row++ {
			// Keys within a random window: narrow windows take the bitmap
			// walk, short rows over wide windows the fallback, and the
			// first row of each width spreads orderSortMax+1 keys evenly,
			// which takes the fallback from 41,000 columns on.
			lo := r.Intn(ncols)
			width := 1 + r.Intn(ncols-lo)
			k := r.Intn(min(width, 100) + 1)
			if row%2 == 1 {
				k = r.Intn(min(width, 2*orderSortMax) + 1)
			}
			keys := r.Perm(width)[:k]
			if row == 0 {
				lo, k, keys = 0, min(ncols, orderSortMax+1), nil
				for i := range k {
					keys = append(keys, i*(ncols/k))
				}
			}
			var mask []Index
			for _, j := range keys {
				s.StoreC(Index(lo+j), float64(j))
			}
			for range 3 {
				if j := Index(r.Intn(ncols)); s.State(j) == NotAllowed {
					s.SetNotAllowed(j)
					mask = append(mask, j)
				}
			}
			want := slices.Clone(s.Inserted())
			slices.Sort(want)
			if got := s.OrderInserted(); !slices.Equal(got, want) {
				t.Fatalf("ncols=%d row %d: ordered log %v, want %v", ncols, row, got, want)
			}
			for _, j := range want {
				if s.State(j) != Set || s.Value(j) != float64(int(j)-lo) {
					t.Fatalf("ncols=%d row %d: key %d lost its state or value", ncols, row, j)
				}
			}
			s.ResetC(mask)
			assertMSAClean(t, s, ncols)
		}
	}
}

// assertMSAClean checks the between-rows invariant: no state set, no
// logged key, every bitmap and summary word zero.
func assertMSAClean(t *testing.T, s *MSA[float64], ncols int) {
	t.Helper()
	if len(s.Inserted()) != 0 {
		t.Fatalf("ncols=%d: %d keys left in the log", ncols, len(s.Inserted()))
	}
	for j, st := range s.state {
		if st != NotAllowed {
			t.Fatalf("ncols=%d: state %d is %d, want NotAllowed", ncols, j, st)
		}
	}
	for w, x := range s.bits {
		if x != 0 {
			t.Fatalf("ncols=%d: bitmap word %d is %#x, want 0", ncols, w, x)
		}
	}
	for w, x := range s.summary {
		if x != 0 {
			t.Fatalf("ncols=%d: summary word %d is %#x, want 0", ncols, w, x)
		}
	}
}

// TestHashAutomaton checks the same state machine through the hash table.
func TestHashAutomaton(t *testing.T) {
	h := NewHash[float64](8)
	h.Prepare(8)
	if h.Insert(42, 1.0, add) {
		t.Fatal("insert of unknown key must discard")
	}
	h.SetAllowed(42)
	if !h.Insert(42, 2.0, add) || !h.Insert(42, 3.0, add) {
		t.Fatal("inserts after SetAllowed must be kept")
	}
	if v, ok := h.Lookup(42); !ok || v != 5 {
		t.Fatalf("lookup = %v,%v", v, ok)
	}
	if v, ok := h.Remove(42); !ok || v != 5 {
		t.Fatalf("remove = %v,%v", v, ok)
	}
	if _, ok := h.Remove(42); ok {
		t.Fatal("second remove must return none")
	}
	if _, ok := h.Lookup(999); ok {
		t.Fatal("lookup of absent key")
	}
}

func TestHashCollisionsAndClearing(t *testing.T) {
	h := NewHash[float64](4)
	h.Prepare(64)
	// Insert keys that collide modulo the table size.
	capBefore := h.Cap()
	for i := 0; i < 64; i++ {
		h.SetAllowed(Index(i * capBefore))
	}
	if h.Used() != 64 {
		t.Fatalf("used = %d, want 64", h.Used())
	}
	for i := 0; i < 64; i++ {
		if !h.Insert(Index(i*capBefore), float64(i), add) {
			t.Fatalf("insert %d failed", i)
		}
	}
	for i := 0; i < 64; i++ {
		if v, ok := h.Lookup(Index(i * capBefore)); !ok || v != float64(i) {
			t.Fatalf("lookup %d = %v,%v", i, v, ok)
		}
	}
	// Prepare clears only used slots.
	h.Prepare(4)
	if h.Used() != 0 {
		t.Fatal("prepare must clear used list")
	}
	if _, ok := h.Lookup(0); ok {
		t.Fatal("old keys must be gone after Prepare")
	}
}

func TestHashComplementGrowth(t *testing.T) {
	h := NewHash[float64](4)
	h.PrepareC(2)
	h.SetNotAllowed(7)
	if h.InsertC(7, 1.0, add) {
		t.Fatal("excluded key must discard")
	}
	// Insert many distinct keys to force growth.
	for i := Index(0); i < 500; i++ {
		key := 10 + i
		if !h.InsertC(key, float64(i), add) {
			t.Fatalf("InsertC %d failed", key)
		}
	}
	if h.Cap() < 500*2 {
		t.Fatalf("table did not grow: cap=%d", h.Cap())
	}
	// Excluded key must survive rehashing.
	if h.InsertC(7, 1.0, add) {
		t.Fatal("excluded key lost across growth")
	}
	// Accumulation across growth.
	if !h.InsertC(10, 100.0, add) {
		t.Fatal("accumulate failed")
	}
	var ks, vs = h.GatherC(nil, nil)
	if len(ks) != 500 {
		t.Fatalf("gathered %d keys, want 500", len(ks))
	}
	found := false
	for i, k := range ks {
		if k == 10 {
			found = true
			if vs[i] != 100.0 {
				t.Fatalf("key 10 value = %v, want 100 (0 + 100 accumulated)", vs[i])
			}
		}
	}
	if !found {
		t.Fatal("key 10 missing from gather")
	}
}

func TestHashLoadFactorSizing(t *testing.T) {
	h := NewHash[float64](1)
	h.Prepare(100)
	if h.Cap() < 400 {
		t.Fatalf("cap = %d, want >= 400 at load 0.25", h.Cap())
	}
}

// TestMCAAutomaton walks the Fig. 5 two-state machine.
func TestMCAAutomaton(t *testing.T) {
	c := NewMCA[float64](4)
	c.Prepare(3)
	// Every representable index is allowed; first insert stores.
	if !c.Insert(1, 2.0, add) {
		t.Fatal("insert must be kept")
	}
	if c.State(1) != Set {
		t.Fatal("state should be Set")
	}
	if !c.Insert(1, 3.0, add) {
		t.Fatal("second insert accumulates")
	}
	if v, ok := c.Remove(1); !ok || v != 5 {
		t.Fatalf("remove = %v,%v want 5", v, ok)
	}
	if _, ok := c.Remove(1); ok {
		t.Fatal("after remove, slot is empty")
	}
	if _, ok := c.Remove(0); ok {
		t.Fatal("never-inserted slot")
	}
	// Mark/RemoveMark (symbolic path).
	c.Mark(2)
	if !c.RemoveMark(2) {
		t.Fatal("RemoveMark after Mark")
	}
	if c.RemoveMark(2) {
		t.Fatal("RemoveMark must reset")
	}
	// Prepare with growth.
	c.Prepare(1000)
	if !c.Insert(999, 1.0, add) {
		t.Fatal("insert after growth")
	}
	c.Remove(999)
}

// TestAccumulatorsAgainstModel drives MSA, Hash and a model map through the
// same random operation sequence (property-based conformance test of the
// §5.1 interface).
func TestAccumulatorsAgainstModel(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const ncols = 64
		msa := NewMSA[float64](ncols)
		h := NewHash[float64](16)
		h.Prepare(ncols)
		allowed := map[Index]bool{}
		model := map[Index]float64{}
		impls := []Interface[float64]{msa, h}
		for op := 0; op < 300; op++ {
			key := Index(r.Intn(ncols))
			switch r.Intn(3) {
			case 0: // setAllowed
				if !allowed[key] {
					for _, im := range impls {
						im.SetAllowed(key)
					}
					allowed[key] = true
				}
			case 1: // insert
				v := float64(r.Intn(10))
				kept := false
				if allowed[key] {
					if old, ok := model[key]; ok {
						model[key] = old + v
					} else {
						model[key] = v
					}
					kept = true
				}
				for _, im := range impls {
					if got := im.Insert(key, v, add); got != kept {
						return false
					}
				}
			case 2: // remove
				wantV, wantOK := model[key]
				delete(model, key)
				delete(allowed, key) // MSA.Remove resets to NotAllowed
				for i, im := range impls {
					gotV, gotOK := im.Remove(key)
					if gotOK != wantOK || (wantOK && gotV != wantV) {
						return false
					}
					// Hash.Remove leaves the key Allowed until Prepare;
					// re-arm MSA to keep the two in sync with `allowed`.
					_ = i
				}
				// After Remove, semantics diverge slightly by design: MSA
				// resets to NotAllowed, Hash to Allowed. Re-align both to
				// NotAllowed by preparing a fresh hash and replaying allowed
				// marks — too costly per step; instead mark the key allowed
				// in both again if it was allowed, keeping states equal.
				if _, stillAllowed := model[key]; !stillAllowed {
					// re-arm both: cheap and keeps invariants aligned
					msa.SetAllowed(key)
					h.SetAllowed(key)
					allowed[key] = true
				}
			}
		}
		// Drain: every model key must be retrievable once.
		for key, want := range model {
			for _, im := range impls {
				got, ok := im.Remove(key)
				if !ok || got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIterHeapOrdering(t *testing.T) {
	var h IterHeap
	r := rand.New(rand.NewSource(21))
	var cols []Index
	for i := 0; i < 200; i++ {
		c := Index(r.Intn(1000))
		cols = append(cols, c)
		h.Push(RowIterator{Col: c, Pos: Index(i), End: Index(i + 1)})
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
	for i := 0; i < 200; i++ {
		if h.Len() != 200-i {
			t.Fatalf("len = %d", h.Len())
		}
		min := h.PopMin()
		if min.Col != cols[i] {
			t.Fatalf("pop %d: col %d, want %d", i, min.Col, cols[i])
		}
	}
	if h.Len() != 0 {
		t.Fatal("heap not empty")
	}
	h.Push(RowIterator{Col: 5})
	h.Push(RowIterator{Col: 3})
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("reset")
	}
}

func TestRowIteratorValid(t *testing.T) {
	it := RowIterator{Pos: 3, End: 5}
	if !it.Valid() {
		t.Fatal("3 < 5 is valid")
	}
	it.Pos = 5
	if it.Valid() {
		t.Fatal("5 == 5 is invalid")
	}
}
