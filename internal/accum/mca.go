package accum

// MCA is the Mask Compressed Accumulator (§5.4), the accumulator designed
// specifically for Masked SpGEMM: because the output row can never hold more
// entries than the mask row, the values and states arrays are sized
// nnz(mask row) and indexed by *mask position* (the rank of the column
// within the sorted mask row) instead of by column id. Only two states are
// needed (Fig. 5): every representable key is allowed by construction, so
// the automaton is Allowed --Insert--> Set --Insert--> Set.
//
// MCA does not support complemented masks (§8.4): the compressed index space
// is defined by the mask entries themselves.
type MCA[T any] struct {
	state []State // Allowed (zero value reused: NotAllowed==0 plays Allowed here)
	value []T
	n     int
}

// NewMCA returns an MCA with capacity for rows of up to capHint mask
// entries.
func NewMCA[T any](capHint int) *MCA[T] {
	if capHint < 1 {
		capHint = 1
	}
	return &MCA[T]{
		state: make([]State, capHint),
		value: make([]T, capHint),
	}
}

// Prepare sets the accumulator up for a mask row with nnzm entries. The
// state array is already all-Allowed because Gather resets the entries it
// visited.
func (c *MCA[T]) Prepare(nnzm int) {
	if nnzm > len(c.state) {
		c.state = make([]State, nnzm)
		c.value = make([]T, nnzm)
	}
	c.n = nnzm
}

// Insert accumulates v at mask position idx (0 ≤ idx < nnz(mask row)).
func (c *MCA[T]) Insert(idx Index, v T, add func(T, T) T) bool {
	if c.state[idx] == Set {
		c.value[idx] = add(c.value[idx], v)
	} else {
		c.state[idx] = Set
		c.value[idx] = v
	}
	return true
}

// State returns the state at mask position idx.
func (c *MCA[T]) State(idx Index) State { return c.state[idx] }

// Store sets mask position idx to v (first insert).
func (c *MCA[T]) Store(idx Index, v T) {
	c.state[idx] = Set
	c.value[idx] = v
}

// Add accumulates v into mask position idx (already Set).
func (c *MCA[T]) Add(idx Index, v T, add func(T, T) T) {
	c.value[idx] = add(c.value[idx], v)
}

// Value returns the accumulated value at mask position idx (meaningful only
// when Set).
func (c *MCA[T]) Value(idx Index) T { return c.value[idx] }

// SetValue overwrites the value at an already-Set mask position without
// touching its state; the inlined-operator counterpart of Add.
func (c *MCA[T]) SetValue(idx Index, v T) { c.value[idx] = v }

// Mark sets mask position idx to Set without a value write (symbolic
// phases).
func (c *MCA[T]) Mark(idx Index) { c.state[idx] = Set }

// RemoveMark reports whether mask position idx was Set and resets it
// (symbolic counterpart of Remove).
func (c *MCA[T]) RemoveMark(idx Index) bool {
	if c.state[idx] != Set {
		return false
	}
	c.state[idx] = NotAllowed
	return true
}

// Remove returns the value at mask position idx if Set and resets it to
// Allowed.
func (c *MCA[T]) Remove(idx Index) (T, bool) {
	var zero T
	if c.state[idx] != Set {
		return zero, false
	}
	c.state[idx] = NotAllowed // zero value doubles as Allowed for MCA
	return c.value[idx], true
}

// Bytes returns the capacity the accumulator holds, in bytes.
func (c *MCA[T]) Bytes() int64 { return sliceBytes(c.state) + sliceBytes(c.value) }

// SetAllowed is a no-op: every mask position is allowed by construction.
// Present to satisfy the generic accumulator interface.
func (c *MCA[T]) SetAllowed(Index) {}

var _ Interface[float64] = (*MCA[float64])(nil)
