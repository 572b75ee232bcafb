package accum

// MSA is the Masked Sparse Accumulator (§5.2): two dense length-ncols
// arrays, one holding accumulated values and one holding per-key states.
// Initialization is O(ncols) once per worker; per-row work is
// O(nnz(mask row) + flops), because rows reset only the entries they
// touched.
//
// State machine (Fig. 3): NotAllowed --SetAllowed--> Allowed --Insert-->
// Set --Insert--> Set; Remove returns the value iff Set and resets to
// NotAllowed.
//
// Counting mode (plus-pair numeric rows): NotAllowed = 0 and Allowed = 1,
// so the state byte is itself the weight of a plus-pair contribution and a
// kernel can accumulate value[j] += T(state[j]) for every flop with no
// branch. Allowing a key also zeroes its value, and keys never move to Set,
// so the value at an allowed key is its contribution count. Values at
// NotAllowed keys are scratch: they may hold anything, including another
// semiring's leftovers, and are never read. The gather walks the mask row,
// resets each key to NotAllowed and keeps it only if its count is non-zero.
// The state machine reads a value only at a Set key, which it wrote on the
// way to Set, so leftovers never leak between the two modes.
//
// Complement mode (§5.2 last paragraph): the default state plays the role
// of Allowed, mask entries are marked Excluded via SetNotAllowed, and an
// insertion log enables gathering without scanning the whole dense array
// (the strategy Gustavson used).
type MSA[T any] struct {
	state    []State
	value    []T
	inserted []Index // keys inserted in complement mode, in first-insert order
}

// NewMSA returns an MSA sized for row vectors with ncols columns.
func NewMSA[T any](ncols int) *MSA[T] {
	return &MSA[T]{
		state: make([]State, ncols),
		value: make([]T, ncols),
	}
}

// Resize grows the accumulator to at least ncols columns, preserving
// nothing. Existing state must already be fully reset.
func (s *MSA[T]) Resize(ncols int) {
	if len(s.state) < ncols {
		s.state = make([]State, ncols)
		s.value = make([]T, ncols)
	}
}

// Len returns the column capacity.
func (s *MSA[T]) Len() int { return len(s.state) }

// Bytes returns the capacity the accumulator holds, in bytes.
func (s *MSA[T]) Bytes() int64 {
	return sliceBytes(s.state) + sliceBytes(s.value) + sliceBytes(s.inserted)
}

// SetAllowed marks key as allowed. Valid only from NotAllowed (the mask has
// no duplicate entries, so a key is set allowed at most once per row).
func (s *MSA[T]) SetAllowed(key Index) {
	s.state[key] = Allowed
}

// Arrays returns the dense state and value arrays (equal lengths) for the
// counting mode, whose setup, scatter and gather index them directly so
// each flop is one byte load and one add-store.
func (s *MSA[T]) Arrays() ([]State, []T) { return s.state, s.value[:len(s.state)] }

// Insert accumulates v at key if allowed, reporting whether it was kept.
func (s *MSA[T]) Insert(key Index, v T, add func(T, T) T) bool {
	switch s.state[key] {
	case Allowed:
		s.state[key] = Set
		s.value[key] = v
		return true
	case Set:
		s.value[key] = add(s.value[key], v)
		return true
	default:
		return false
	}
}

// State returns the current state of key. Kernels use State+Store+Add for
// the lazy-multiply fast path.
func (s *MSA[T]) State(key Index) State { return s.state[key] }

// Store sets key to Set with value v. Precondition: state is Allowed (or
// default-allowed in complement mode).
func (s *MSA[T]) Store(key Index, v T) {
	s.state[key] = Set
	s.value[key] = v
}

// Add accumulates v into an already-Set key.
func (s *MSA[T]) Add(key Index, v T, add func(T, T) T) {
	s.value[key] = add(s.value[key], v)
}

// Value returns the accumulated value at key (meaningful only when Set).
func (s *MSA[T]) Value(key Index) T { return s.value[key] }

// SetValue overwrites the value at an already-Set key without touching its
// state. Kernels instantiated over an inlined operator accumulate with
// s.SetValue(key, ops.Add(s.Value(key), v)) so the add call is direct
// rather than through a func value.
func (s *MSA[T]) SetValue(key Index, v T) { s.value[key] = v }

// Mark sets key to Set without writing a value; symbolic phases use it so
// that structure discovery does not touch the values array.
func (s *MSA[T]) Mark(key Index) { s.state[key] = Set }

// MarkC is the complement-mode Mark: sets key to Set and logs it, without a
// value write.
func (s *MSA[T]) MarkC(key Index) {
	s.state[key] = Set
	s.inserted = append(s.inserted, key)
}

// Remove returns the accumulated value at key if one was inserted and
// resets the key to NotAllowed (also clearing Allowed marks), implementing
// the §5.1 remove.
func (s *MSA[T]) Remove(key Index) (T, bool) {
	var zero T
	st := s.state[key]
	s.state[key] = NotAllowed
	if st == Set {
		return s.value[key], true
	}
	return zero, false
}

// --- Complement mode ---

// SetNotAllowed marks key as Excluded; used for each mask entry when the
// mask is complemented.
func (s *MSA[T]) SetNotAllowed(key Index) {
	s.state[key] = Excluded
}

// InsertC accumulates v at key under a complemented mask: keys default to
// allowed, Excluded keys discard. First insertion of a key is logged so the
// gather can iterate only inserted keys.
func (s *MSA[T]) InsertC(key Index, v T, add func(T, T) T) bool {
	switch s.state[key] {
	case NotAllowed: // default-allowed in complement mode
		s.state[key] = Set
		s.value[key] = v
		s.inserted = append(s.inserted, key)
		return true
	case Set:
		s.value[key] = add(s.value[key], v)
		return true
	default: // Excluded
		return false
	}
}

// StoreC is the complement-mode Store: marks key Set and logs it.
func (s *MSA[T]) StoreC(key Index, v T) {
	s.state[key] = Set
	s.value[key] = v
	s.inserted = append(s.inserted, key)
}

// Inserted returns the complement-mode insertion log (keys in first-insert
// order, not sorted).
func (s *MSA[T]) Inserted() []Index { return s.inserted }

// ResetC clears all complement-mode state: inserted keys, and the Excluded
// marks for the given mask row. Call once per row after gathering.
func (s *MSA[T]) ResetC(maskRow []Index) {
	for _, j := range s.inserted {
		s.state[j] = NotAllowed
	}
	s.inserted = s.inserted[:0]
	for _, j := range maskRow {
		s.state[j] = NotAllowed
	}
}

var _ Interface[float64] = (*MSA[float64])(nil)
