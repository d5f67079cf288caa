// Package distsweep scales sweeps beyond one process. It is a lease layer
// over exp.Runner's sweep engine: a coordinator (cmd/sweep -serve) owns a
// case grid and the CRC'd JSONL checkpoint journal as durable state, and
// leases contiguous ranges of the grid over HTTP/JSON to workers
// (cmd/sweep -worker), which run each range through their Runner's whole
// session pool and stream per-case results back.
//
// Robustness model, outermost first:
//
//   - The journal is the only durable state. Every accepted case is
//     journaled under exactly the stage key a local exp.Runner would use
//     (exp.StageKey), so a sweep may start local, continue distributed,
//     crash, and resume either way — without re-running committed cases.
//   - Leases expire when a worker stops heartbeating; their unfinished
//     indices return to the free pool and are re-issued. Cases already
//     committed under an expired lease are never re-issued.
//   - Result delivery is idempotent: cases are deduplicated by index, so
//     a worker that kept executing through a coordinator outage (or past
//     its own lease expiry) can deliver late or twice without poisoning
//     the journal. Per-case CRCs reject corrupt deliveries.
//   - Merge order is deterministic case-index order. Because each case
//     is bit-identical to a serial run (seeded RNG streams, not
//     scheduling), the merged results are byte-identical to a serial
//     in-process sweep under any worker interleaving and any kill
//     schedule — the chaos suite in chaos_test.go enforces this.
package distsweep

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/schema"
	"repro/internal/workloads"
)

// Spec describes one distributed sweep completely: the case grid, the
// scheme, and everything that determines simulation results (device
// configuration, window, seed). Workers fetch it from the coordinator
// and build sessions from it, so both sides agree on the grid-index →
// case mapping and on the journal identity.
type Spec struct {
	// Mode selects the grid shape: "pairs" or "trios".
	Mode string `json:"mode"`
	// Pairs is the pair grid (pairs mode).
	Pairs []workloads.Pair `json:"pairs,omitempty"`
	// Trios is the trio grid (trios mode).
	Trios []workloads.Trio `json:"trios,omitempty"`
	// Goals is the QoS-goal axis as typed goals (schema.Goal); cases are
	// ordered pair/trio-major, goal-minor, exactly like the serial
	// sweeps. Sweeps sweep the paper's fraction-of-isolated-IPC axis, so
	// every goal must be the frac form — which marshals as a bare JSON
	// number, keeping the wire bytes (and therefore journal stage keys)
	// identical to the historical []float64 encoding. Build with
	// schema.FracGoals.
	Goals []schema.Goal `json:"goals"`
	// NQoS is the QoS kernel count per trio (1 or 2; trios mode).
	NQoS int `json:"nqos,omitempty"`
	// Scheme names the QoS scheme (core.ParseScheme).
	Scheme string `json:"scheme"`
	// GPU is the device configuration; the zero value means config.Base().
	GPU config.GPU `json:"gpu"`
	// Window is the measurement window in cycles (0 means the session
	// default).
	Window int64 `json:"window,omitempty"`
	// Seed seeds the per-session RNG streams (0 means the session
	// default, workloads.Seed).
	Seed uint64 `json:"seed,omitempty"`
}

// Sweep modes.
const (
	ModePairs = "pairs"
	ModeTrios = "trios"
)

// Validate checks the spec describes a runnable, non-empty sweep.
func (sp Spec) Validate() error {
	switch sp.Mode {
	case ModePairs:
	case ModeTrios:
		if sp.NQoS < 1 || sp.NQoS > 2 {
			return fmt.Errorf("distsweep: nQoS must be 1 or 2, got %d", sp.NQoS)
		}
	default:
		return fmt.Errorf("distsweep: unknown mode %q", sp.Mode)
	}
	for i, g := range sp.Goals {
		if g.Kind != schema.GoalFrac {
			return fmt.Errorf("distsweep: goal %d is %q-form; sweep axes are fractions of isolated IPC", i, g.Kind)
		}
		if err := g.Validate(); err != nil {
			return fmt.Errorf("distsweep: goal %d: %w", i, err)
		}
	}
	if _, err := core.ParseScheme(sp.Scheme); err != nil {
		return err
	}
	return sp.grid().Check()
}

// SessionOptions returns the core options a session must be built with
// to reproduce this sweep's results.
func (sp Spec) SessionOptions() []core.Option {
	opts := []core.Option{}
	if sp.GPU.NumSMs != 0 {
		opts = append(opts, core.WithGPU(sp.GPU))
	}
	if sp.Window != 0 {
		opts = append(opts, core.WithWindow(sp.Window))
	}
	if sp.Seed != 0 {
		opts = append(opts, core.WithSeed(sp.Seed))
	}
	return opts
}

// grid is the exp case grid the spec describes. Sweeps sweep the paper's
// fraction-of-isolated-IPC axis, so only the goals' fractions matter.
func (sp Spec) grid() exp.Grid {
	goals := make([]float64, len(sp.Goals))
	for i, g := range sp.Goals {
		goals[i] = g.Frac
	}
	if sp.Mode == ModeTrios {
		return exp.Grid{Trios: sp.Trios, Goals: goals, NQoS: sp.NQoS}
	}
	return exp.Grid{Pairs: sp.Pairs, Goals: goals}
}

// HeaderHash is the journal header hash binding a journal file to this
// sweep's device, window, mode and nQoS. cmd/sweep derives the header of
// every grid journal through it, local or distributed, so one file moves
// freely between the two.
func (sp Spec) HeaderHash() (string, error) {
	cfg := sp.GPU
	if cfg.NumSMs == 0 {
		cfg = config.Base()
	}
	window := sp.Window
	if window == 0 {
		window = 200_000
	}
	// Pairs mode hashes the -nqos flag (default 1) too, unused as it is
	// there: journals written that way must keep opening.
	nqos := sp.NQoS
	if nqos == 0 {
		nqos = 1
	}
	return journal.Hash(struct {
		GPU    config.GPU
		Window int64
		Mode   string
		NQoS   int
	}{cfg, window, sp.Mode, nqos})
}

// StageKey derives the journal stage key for this sweep by resolving a
// session from the spec's options — identical to the key a local
// exp.Runner built from SessionOptions derives for the same grid.
func (sp Spec) StageKey() (string, error) {
	scheme, err := core.ParseScheme(sp.Scheme)
	if err != nil {
		return "", err
	}
	s, err := core.NewSession(sp.SessionOptions()...)
	if err != nil {
		return "", err
	}
	return sp.grid().StageKey(s.Config(), s.Seed(), scheme)
}
