package masked

// Panic isolation for the serving layer. A panic inside a kernel, a planner
// stage or a request callback must cost exactly one request, never the
// process: the serving entry points (lead, Serve workers, MultiplyBatch
// groups) recover at the request boundary and convert the panic into a
// *PanicError response, after the deferred cleanup below them (arbiter grant
// release, single-flight unlink) has already run. internal/parallel
// cooperates by re-raising worker-goroutine panics on the coordinator
// goroutine (parallel.WorkerPanic), which is what makes a request-boundary
// recover sufficient — without it a panic on a worker goroutine would be
// unrecoverable anywhere.

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/parallel"
)

// ErrPanic is the sentinel wrapped by every *PanicError, so callers can
// classify recovered-panic outcomes with errors.Is(err, ErrPanic) without
// depending on the concrete type. The network front end maps it to 500.
var ErrPanic = errors.New("masked: panic during request execution")

// PanicError is the error a request that panicked resolves to: the original
// panic value plus the stack of the goroutine that panicked (for a worker
// panic, the worker's stack at the point of panic, not the coordinator's).
// It unwraps to ErrPanic. Coalesced followers of a panicked leader share it,
// like any other leader outcome.
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the stack of the panicking goroutine.
	Stack []byte
}

// Error describes the panic without the stack (stacks go to logs, not into
// error strings that may travel on the wire).
func (e *PanicError) Error() string {
	return fmt.Sprintf("%v: %v", ErrPanic, e.Value)
}

// Unwrap makes errors.Is(err, ErrPanic) true.
func (e *PanicError) Unwrap() error { return ErrPanic }

// newPanicError converts a recovered panic value into a *PanicError,
// preserving the worker-side stack when the value is a re-raised
// parallel.WorkerPanic and capturing the current stack otherwise.
func newPanicError(v any) *PanicError {
	if wp, ok := v.(parallel.WorkerPanic); ok {
		return &PanicError{Value: wp.Value, Stack: wp.Stack}
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// protect runs one request body under a recover barrier: a panic anywhere
// in run becomes a BatchRes carrying a *PanicError and bumps the session's
// panic counter. The Serve workers and MultiplyBatch group goroutines wrap
// their per-request work in it so a panicking request cannot kill the
// worker pool (lead has its own, earlier barrier that additionally
// publishes the error to coalesced followers).
func (s *Session) protect(run func() BatchRes) (res BatchRes) {
	defer func() {
		if v := recover(); v != nil {
			s.panics.Add(1)
			res = BatchRes{Err: newPanicError(v)}
		}
	}()
	return run()
}
