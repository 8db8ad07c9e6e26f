package sched

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is a panic contained by the scheduler: every Job.Run and
// MapAllCtx callback executes under recover, so one misbehaving
// simulation surfaces as a structured error instead of killing the
// whole fan-out. Tag labels the failed unit (the job tag or item
// index), Value is the recovered panic value and Stack the goroutine
// stack captured at recovery.
type PanicError struct {
	Tag   string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.Tag != "" {
		return fmt.Sprintf("%s: panic: %v", e.Tag, e.Value)
	}
	return fmt.Sprintf("panic: %v", e.Value)
}

// protect runs fn(v) under recover, converting a panic into a
// *PanicError carrying tag and the stack.
func protect[T, R any](tag string, fn func(T) (R, error), v T) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			var zero R
			r, err = zero, &PanicError{Tag: tag, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(v)
}

// JoinErrors flattens a MapAllCtx error slice (indexed by submission
// order, nil for succeeded items) into one deterministic error: nil
// when every item succeeded, otherwise a count-prefixed wrapper around
// errors.Join of the failures in submission order. errors.Is/As see
// through to every individual failure.
func JoinErrors(errs []error) error {
	n := 0
	for _, err := range errs {
		if err != nil {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d jobs failed: %w", n, len(errs), errors.Join(errs...))
}
