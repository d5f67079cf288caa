package exp

import (
	"context"

	"repro/internal/core"
)

// interceptCases wraps r's per-case run: before case i runs, hook is
// handed its index and the case's context. A hook that returns an error,
// panics or blocks past the per-case deadline fails the case exactly as
// a failing simulation would, because it runs inside the same fault
// boundary. Call it before the first sweep.
func (r *Runner) interceptCases(hook func(ctx context.Context, i int) error) {
	run := r.caseRun
	r.caseRun = func(ctx context.Context, g Grid, i int, scheme core.Scheme) (*core.Result, error) {
		if err := hook(ctx, i); err != nil {
			return nil, err
		}
		return run(ctx, g, i, scheme)
	}
}
