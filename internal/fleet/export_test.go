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

// StubSims replaces every node's what-if simulation with stub, which
// answers at once and never fails: a journal of hundreds of decisions
// (the recovery benchmark's, the fast-path tests') then costs no
// simulation. Call it before the first submission.
func StubSims(f *Fleet, stub func(specs []core.KernelSpec, scheme core.Scheme) *core.Result) {
	for _, n := range f.nodes {
		n.sim = func(_ context.Context, specs []core.KernelSpec, scheme core.Scheme) (*core.Result, error) {
			return stub(specs, scheme), nil
		}
	}
}
