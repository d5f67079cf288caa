package fleet

import (
	"context"

	"repro/internal/core"
)

// InterceptSims wraps every node's what-if simulation: before each one,
// hook is handed the evaluation's context and specs (candidate last). A
// hook that returns an error, panics or blocks past EvalTimeout fails the
// evaluation exactly as a failing simulation would, because it runs
// inside the same guard. Call it before the first submission.
func InterceptSims(f *Fleet, hook func(ctx context.Context, specs []core.KernelSpec) error) {
	for _, n := range f.nodes {
		sim := n.sim
		n.sim = func(ctx context.Context, specs []core.KernelSpec, scheme core.Scheme) (*core.Result, error) {
			if err := hook(ctx, specs); err != nil {
				return nil, err
			}
			return sim(ctx, specs, scheme)
		}
	}
}
