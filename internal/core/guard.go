package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"
)

// PanicError is a panic recovered by Guard, keeping the panic value and
// the goroutine stack for the failure report.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the stack travels separately so wrapped
// error chains stay one line.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Guard runs fn inside the one fault boundary every simulation owner
// shares — a sweep case (exp.Runner) and a what-if (verdict.Decider):
// bounded by timeout (0 means none) and with a panic converted into a
// *PanicError, so a crashing run surfaces as a value instead of killing
// the process. The deadline is cooperative: fn receives it on its
// context, which gpu.RunCtx polls at sub-epoch granularity, and an
// expired run returns context.DeadlineExceeded.
//
// Nothing retries a failure: a run is a pure function of configuration,
// seed, specs, scheme and window, so it would fail again identically.
func Guard(ctx context.Context, timeout time.Duration, fn func(context.Context) error) (err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx)
}
