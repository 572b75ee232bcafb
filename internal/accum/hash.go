package accum

// Hash is the hash-table accumulator (§5.3): open addressing with linear
// probing, keys and states stored together, sized for the known number of
// mask entries with a load factor of 0.25 to keep probe chains short. In
// normal (non-complemented) mode the table never grows within a row — the
// key set is exactly the mask row. In complement mode the number of distinct
// keys is not known in advance, so the table grows by doubling when the
// complement load factor (0.5) is exceeded.
type Hash[T any] struct {
	keys  []Index // emptyKey = free slot
	state []State
	value []T
	mask  uint32  // len(keys)-1; len is a power of two
	used  []int32 // occupied slot indexes, for O(used) clearing and gathering
}

const emptyKey = Index(-1)

// hashMul is Knuth's multiplicative constant for 32-bit keys.
const hashMul = 2654435761

// NewHash returns a hash accumulator with capacity for at least capHint
// keys at the paper's 0.25 load factor.
func NewHash[T any](capHint int) *Hash[T] {
	h := &Hash[T]{}
	h.grow(tableSize(capHint, 1, 4))
	return h
}

func tableSize(keys, num, den int) int {
	if keys < 1 {
		keys = 1
	}
	want := keys * den / num
	size := 16
	for size < want {
		size *= 2
	}
	return size
}

func (h *Hash[T]) grow(size int) {
	h.keys = make([]Index, size)
	for i := range h.keys {
		h.keys[i] = emptyKey
	}
	h.state = make([]State, size)
	h.value = make([]T, size)
	h.mask = uint32(size - 1)
}

// Prepare clears the table and ensures capacity for expected keys at the
// paper's 0.25 load factor. Clearing touches only previously used slots, so a
// worker's table stays warm across rows.
func (h *Hash[T]) Prepare(expected int) {
	want := tableSize(expected, 1, 4)
	if want > len(h.keys) {
		h.grow(want)
		h.used = h.used[:0]
		return
	}
	for _, s := range h.used {
		h.keys[s] = emptyKey
		h.state[s] = NotAllowed
	}
	h.used = h.used[:0]
}

func (h *Hash[T]) slot(key Index) uint32 {
	return (uint32(key) * hashMul) & h.mask
}

// find returns the slot holding key, or the first empty slot of its probe
// chain if absent (second result false).
func (h *Hash[T]) find(key Index) (uint32, bool) {
	s := h.slot(key)
	for {
		k := h.keys[s]
		if k == key {
			return s, true
		}
		if k == emptyKey {
			return s, false
		}
		s = (s + 1) & h.mask
	}
}

// SetAllowed inserts key with state Allowed. Keys come from the mask row
// and are distinct, so the caller guarantees no duplicate SetAllowed.
func (h *Hash[T]) SetAllowed(key Index) {
	s, found := h.find(key)
	if found {
		return
	}
	h.keys[s] = key
	h.state[s] = Allowed
	h.used = append(h.used, int32(s))
}

// Probe returns the slot and state for key: NotAllowed when the key is not
// in the table.
func (h *Hash[T]) Probe(key Index) (uint32, State) {
	s, found := h.find(key)
	if !found {
		return s, NotAllowed
	}
	return s, h.state[s]
}

// StoreAt sets slot s (from Probe, state Allowed) to Set with value v.
func (h *Hash[T]) StoreAt(s uint32, v T) {
	h.state[s] = Set
	h.value[s] = v
}

// ValueAt returns the value stored in slot s.
func (h *Hash[T]) ValueAt(s uint32) T { return h.value[s] }

// SetValueAt overwrites the value in slot s (state Set) without touching
// its state; kernels accumulate with SetValueAt(s, add(ValueAt(s), v)).
func (h *Hash[T]) SetValueAt(s uint32, v T) { h.value[s] = v }

// MarkAt sets slot s to Set without writing a value (symbolic phases).
func (h *Hash[T]) MarkAt(s uint32) { h.state[s] = Set }

// ProbeC prepares a complement-mode probe: it grows the table if needed
// (so the returned slot stays valid for an immediate insert) and then
// returns the slot and state for key. A NotAllowed result means the key is
// absent and may be inserted at the returned slot via InsertNewAtC.
func (h *Hash[T]) ProbeC(key Index) (uint32, State) {
	h.maybeGrow()
	s, found := h.find(key)
	if !found {
		return s, NotAllowed
	}
	return s, h.state[s]
}

// InsertNewAtC occupies the empty slot s (from ProbeC) with key in state
// Set and value v.
func (h *Hash[T]) InsertNewAtC(s uint32, key Index, v T) {
	h.keys[s] = key
	h.state[s] = Set
	h.value[s] = v
	h.used = append(h.used, int32(s))
}

// MarkNewAtC occupies the empty slot s with key in state Set without a
// value write (symbolic phases).
func (h *Hash[T]) MarkNewAtC(s uint32, key Index) {
	h.keys[s] = key
	h.state[s] = Set
	h.used = append(h.used, int32(s))
}

// Insert accumulates v at key if the key was marked allowed.
func (h *Hash[T]) Insert(key Index, v T, add func(T, T) T) bool {
	s, found := h.find(key)
	if !found {
		return false
	}
	switch h.state[s] {
	case Allowed:
		h.state[s] = Set
		h.value[s] = v
		return true
	case Set:
		h.value[s] = add(h.value[s], v)
		return true
	default:
		return false
	}
}

// Remove returns the accumulated value for key if Set and downgrades the
// key so repeated Remove returns nothing. The slot stays occupied until the
// next Prepare; gather order is driven by the mask row, so this matches the
// paper's stable gather.
func (h *Hash[T]) Remove(key Index) (T, bool) {
	var zero T
	s, found := h.find(key)
	if !found {
		return zero, false
	}
	st := h.state[s]
	h.state[s] = Allowed
	if st == Set {
		return h.value[s], true
	}
	return zero, false
}

// Lookup returns the accumulated value for key if its state is Set.
func (h *Hash[T]) Lookup(key Index) (T, bool) {
	var zero T
	s, found := h.find(key)
	if !found || h.state[s] != Set {
		return zero, false
	}
	return h.value[s], true
}

// --- Complement mode ---

// PrepareC clears the table and sizes it for at least expected keys at a
// 0.5 maximum load factor; the table grows on demand during InsertC.
func (h *Hash[T]) PrepareC(expected int) {
	want := tableSize(expected, 1, 2)
	if want > len(h.keys) {
		h.grow(want)
		h.used = h.used[:0]
		return
	}
	for _, s := range h.used {
		h.keys[s] = emptyKey
		h.state[s] = NotAllowed
	}
	h.used = h.used[:0]
}

// SetNotAllowed marks key Excluded (a complemented-mask entry).
func (h *Hash[T]) SetNotAllowed(key Index) {
	h.maybeGrow()
	s, found := h.find(key)
	if found {
		h.state[s] = Excluded
		return
	}
	h.keys[s] = key
	h.state[s] = Excluded
	h.used = append(h.used, int32(s))
}

// InsertC accumulates v at key under a complemented mask: absent keys are
// allowed and inserted as Set; Excluded keys discard.
func (h *Hash[T]) InsertC(key Index, v T, add func(T, T) T) bool {
	h.maybeGrow()
	s, found := h.find(key)
	if !found {
		h.keys[s] = key
		h.state[s] = Set
		h.value[s] = v
		h.used = append(h.used, int32(s))
		return true
	}
	switch h.state[s] {
	case Set:
		h.value[s] = add(h.value[s], v)
		return true
	default: // Excluded
		return false
	}
}

// maybeGrow rehashes into a doubled table when the complement-mode load
// factor (0.5) is exceeded.
func (h *Hash[T]) maybeGrow() {
	if len(h.used)*2 < len(h.keys) {
		return
	}
	oldKeys, oldState, oldValue, oldUsed := h.keys, h.state, h.value, h.used
	h.grow(len(h.keys) * 2)
	h.used = h.used[:0]
	for _, os := range oldUsed {
		key := oldKeys[os]
		s, _ := h.find(key)
		h.keys[s] = key
		h.state[s] = oldState[os]
		h.value[s] = oldValue[os]
		h.used = append(h.used, int32(s))
	}
}

// GatherC appends every Set (key, value) pair to the provided slices and
// returns them. Order is slot order (unsorted); complement-mode kernels sort
// afterwards.
func (h *Hash[T]) GatherC(keys []Index, vals []T) ([]Index, []T) {
	for _, s := range h.used {
		if h.state[s] == Set {
			keys = append(keys, h.keys[s])
			vals = append(vals, h.value[s])
		}
	}
	return keys, vals
}

// Used returns the number of occupied slots (diagnostics and tests).
func (h *Hash[T]) Used() int { return len(h.used) }

// Cap returns the current table capacity (diagnostics and tests).
func (h *Hash[T]) Cap() int { return len(h.keys) }

// Bytes returns the capacity the table holds, in bytes.
func (h *Hash[T]) Bytes() int64 {
	return sliceBytes(h.keys) + sliceBytes(h.state) + sliceBytes(h.value) + sliceBytes(h.used)
}

var _ Interface[float64] = (*Hash[float64])(nil)
