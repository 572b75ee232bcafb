// Package accum implements the four accumulator data structures of the
// paper (§5): the Masked Sparse Accumulator (MSA), the Hash accumulator, the
// novel Mask Compressed Accumulator (MCA), and the heap row-merger used by
// the Heap/HeapDot algorithms.
//
// An accumulator merges the scaled rows of B that form one output row
// C_i* = M_i* .* Σ_k A_ik · B_k*, discarding entries masked out by M_i*.
// Following §5.1, accumulators distinguish three states per key:
//
//	NotAllowed — the key is masked out; inserts are discarded.
//	Allowed    — the key is in the mask but no value has been inserted yet.
//	Set        — at least one value has been inserted; further inserts
//	             accumulate with the semiring add.
//
// For complemented masks the default state flips: keys are allowed unless
// the mask marks them Excluded. One extra state value (Excluded) lets each
// structure serve both modes without reinitialization.
//
// All accumulators are single-goroutine scratch objects: one worker owns one
// accumulator and reuses it across all the rows that worker processes, which
// is how the kernels amortize the O(ncols) initialization the paper notes
// for MSA.
package accum

import (
	"unsafe"

	"repro/internal/matrix"
)

// Index mirrors matrix.Index for brevity within this package.
type Index = matrix.Index

// State is the per-key accumulator state (Fig. 3 and Fig. 5 automata).
type State uint8

// Accumulator states. The zero value is NotAllowed so that freshly allocated
// state arrays are valid for non-complemented masks without initialization.
const (
	NotAllowed State = 0 // default: discard inserts (normal mode)
	Allowed    State = 1 // in mask, nothing inserted yet
	Set        State = 2 // value present
	Excluded   State = 3 // masked out (complement mode only)
)

// Interface is the generic accumulator contract of §5.1, offered for
// documentation and conformance testing. The hot kernels in internal/core
// use the concrete types directly so the Go compiler can inline the state
// machine; the interface methods on each concrete type are thin wrappers
// over the same code.
type Interface[T any] interface {
	// SetAllowed marks key as allowed (mask entry present).
	SetAllowed(key Index)
	// Insert accumulates value at key with add, if the key is allowed; it
	// reports whether the value was kept. The eager value argument replaces
	// the paper's lambda: the multiply is one flop and Go closures would
	// allocate, so kernels compute the product and let the accumulator
	// discard it. Memory behavior — the property the paper studies — is
	// unchanged.
	Insert(key Index, value T, add func(T, T) T) bool
	// Remove returns the accumulated value for key (if any was inserted)
	// and resets the key to its default state.
	Remove(key Index) (T, bool)
}

// sliceBytes is the capacity of s in bytes.
func sliceBytes[E any](s []E) int64 {
	var e E
	return int64(cap(s)) * int64(unsafe.Sizeof(e))
}
