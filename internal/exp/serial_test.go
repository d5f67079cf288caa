package exp

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/workloads"
)

// PairSweep runs every pair at every goal under the scheme, serially on
// one session: the reference a collected pair sweep must equal, case for
// case.
func PairSweep(ctx context.Context, s *core.Session, pairs []workloads.Pair, goals []float64, scheme core.Scheme) ([]Case, error) {
	out := make([]Case, 0, len(pairs)*len(goals))
	for _, p := range pairs {
		for _, g := range goals {
			res, err := s.Run(ctx, PairSpecs(p, g), scheme)
			if err != nil {
				return nil, fmt.Errorf("pair %s+%s @%.2f: %w", p.QoS, p.NonQoS, g, err)
			}
			out = append(out, Case{Goal: g, Res: res})
		}
	}
	return out, nil
}

// TrioSweep runs every trio at every goal with nQoS QoS kernels (1 or 2),
// serially on one session. For nQoS==1 the goal applies to the trio's
// first member; for nQoS==2 the same goal applies to the first two (the
// paper's 2x25%..2x70%). It is the serial reference for a collected trio
// sweep.
func TrioSweep(ctx context.Context, s *core.Session, trios []workloads.Trio, goals []float64, nQoS int, scheme core.Scheme) ([]Case, error) {
	if nQoS < 1 || nQoS > 2 {
		return nil, fmt.Errorf("exp: nQoS must be 1 or 2, got %d", nQoS)
	}
	out := make([]Case, 0, len(trios)*len(goals))
	for _, t := range trios {
		for _, g := range goals {
			res, err := s.Run(ctx, TrioSpecs(t, g, nQoS), scheme)
			if err != nil {
				return nil, fmt.Errorf("trio %s+%s+%s @%.2f: %w", t.A, t.B, t.C, g, err)
			}
			out = append(out, Case{Goal: g, Res: res})
		}
	}
	return out, nil
}
