package server

import (
	"context"

	"repro/internal/core"
	"repro/internal/trace"
)

// interceptSims wraps s's /v1 what-if simulation: before each one, hook
// is handed the evaluation's context and specs (candidate last). A hook
// that returns an error, panics or blocks past EvalTimeout fails the
// evaluation exactly as a failing simulation would, because it runs
// inside the same guard. Call it before the first submission.
func (s *Server) interceptSims(hook func(ctx context.Context, specs []core.KernelSpec) error) {
	sim := s.sim
	s.sim = func(ctx context.Context, specs []core.KernelSpec, scheme core.Scheme, tr *trace.Tracer) (*core.Result, error) {
		if err := hook(ctx, specs); err != nil {
			return nil, err
		}
		return sim(ctx, specs, scheme, tr)
	}
}
