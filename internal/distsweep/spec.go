// Package distsweep scales sweeps beyond one process: a coordinator
// (cmd/sweepd) owns a case grid and the CRC'd JSONL checkpoint journal
// as durable state, and leases contiguous case ranges over HTTP/JSON to
// workers (cmd/sweep -worker) that execute them on pooled simulator
// sessions and stream per-case results back.
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
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/schema"
	"repro/internal/trace"
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
		if len(sp.Pairs) == 0 {
			return errors.New("distsweep: spec has no pairs")
		}
	case ModeTrios:
		if len(sp.Trios) == 0 {
			return errors.New("distsweep: spec has no trios")
		}
		if sp.NQoS < 1 || sp.NQoS > 2 {
			return fmt.Errorf("distsweep: nQoS must be 1 or 2, got %d", sp.NQoS)
		}
	default:
		return fmt.Errorf("distsweep: unknown mode %q", sp.Mode)
	}
	if len(sp.Goals) == 0 {
		return errors.New("distsweep: spec has no goals")
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
	return nil
}

// FracAxis lowers the goal axis to the bare fractions the exp grids and
// stage-key hashes have always used.
func (sp Spec) FracAxis() []float64 {
	out := make([]float64, len(sp.Goals))
	for i, g := range sp.Goals {
		out[i] = g.Frac
	}
	return out
}

// Total returns the case count of the grid.
func (sp Spec) Total() int {
	if sp.Mode == ModeTrios {
		return len(sp.Trios) * len(sp.Goals)
	}
	return len(sp.Pairs) * len(sp.Goals)
}

// SchemeValue resolves the scheme name.
func (sp Spec) SchemeValue() (core.Scheme, error) { return core.ParseScheme(sp.Scheme) }

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

// Grid returns the hashed grid identity — the same value the local
// Runner hashes, so stage keys agree.
func (sp Spec) Grid() any {
	if sp.Mode == ModeTrios {
		return exp.TrioGrid{Trios: sp.Trios, Goals: sp.FracAxis(), NQoS: sp.NQoS}
	}
	return exp.PairGrid{Pairs: sp.Pairs, Goals: sp.FracAxis()}
}

// HeaderHash is the journal header hash binding a journal file to this
// sweep's device, window, mode and nQoS — the same derivation cmd/sweep
// uses, so sweepd and sweep can share one journal file.
func (sp Spec) HeaderHash() (string, error) {
	cfg := sp.GPU
	if cfg.NumSMs == 0 {
		cfg = config.Base()
	}
	window := sp.Window
	if window == 0 {
		window = 200_000
	}
	// cmd/sweep hashes its -nqos flag (default 1) even in pairs mode,
	// where the value is unused; mirror that so the files interoperate.
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
// exp.Runner built from SessionOptions would derive.
func (sp Spec) StageKey() (string, error) {
	scheme, err := sp.SchemeValue()
	if err != nil {
		return "", err
	}
	s, err := core.NewSession(sp.SessionOptions()...)
	if err != nil {
		return "", err
	}
	return exp.StageKey(s.Config(), s.Seed(), sp.Mode, scheme, sp.Grid())
}

// Describe renders one case's grid coordinates for logs and failure
// reports, mirroring the local Runner's describe strings.
func (sp Spec) Describe(i int) string {
	g := sp.Goals[i%len(sp.Goals)].Frac
	if sp.Mode == ModeTrios {
		t := sp.Trios[i/len(sp.Goals)]
		return fmt.Sprintf("trio[%d] %s+%s+%s @%.2f", i/len(sp.Goals), t.A, t.B, t.C, g)
	}
	p := sp.Pairs[i/len(sp.Goals)]
	return fmt.Sprintf("pair[%d] %s+%s @%.2f", i/len(sp.Goals), p.QoS, p.NonQoS, g)
}

// CaseSpecs maps a case index to its kernel spec list, via the same
// exp helpers every other execution path uses.
func (sp Spec) CaseSpecs(i int) ([]core.KernelSpec, error) {
	if i < 0 || i >= sp.Total() {
		return nil, fmt.Errorf("distsweep: case index %d outside grid [0,%d)", i, sp.Total())
	}
	g := sp.Goals[i%len(sp.Goals)].Frac
	if sp.Mode == ModeTrios {
		specs, _ := exp.TrioSpecs(sp.Trios[i/len(sp.Goals)], g, sp.NQoS)
		return specs, nil
	}
	return exp.PairSpecs(sp.Pairs[i/len(sp.Goals)], g), nil
}

// RunCaseTraced executes one case on a session and returns the
// journal-ready payload — the JSON encoding of the same
// exp.PairCase/exp.TrioCase value a local sweep would checkpoint, so
// distributed and local journals are interchangeable byte for byte. An
// observability tracer may be attached to the simulation (nil for
// none); it never influences results — workers ship only its event
// counts as side evidence.
func (sp Spec) RunCaseTraced(ctx context.Context, s *core.Session, i int, tr *trace.Tracer) (json.RawMessage, *core.Result, error) {
	specs, err := sp.CaseSpecs(i)
	if err != nil {
		return nil, nil, err
	}
	scheme, err := sp.SchemeValue()
	if err != nil {
		return nil, nil, err
	}
	res, err := s.RunTraced(ctx, specs, scheme, tr)
	if err != nil {
		return nil, nil, err
	}
	g := sp.Goals[i%len(sp.Goals)].Frac
	var v any
	if sp.Mode == ModeTrios {
		_, qg := exp.TrioSpecs(sp.Trios[i/len(sp.Goals)], g, sp.NQoS)
		v = exp.TrioCase{Trio: sp.Trios[i/len(sp.Goals)], QoSGoals: qg, Scheme: scheme, Res: res}
	} else {
		v = exp.PairCase{Pair: sp.Pairs[i/len(sp.Goals)], Goal: g, Scheme: scheme, Res: res}
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil, nil, fmt.Errorf("distsweep: marshal case %d: %w", i, err)
	}
	return data, res, nil
}

// ValidCase reports whether a payload restores to a completed case of
// this sweep's mode — the same acceptance check the local Runner's
// journal restore applies.
func (sp Spec) ValidCase(raw json.RawMessage) bool {
	if sp.Mode == ModeTrios {
		var c exp.TrioCase
		return json.Unmarshal(raw, &c) == nil && c.Res != nil
	}
	var c exp.PairCase
	return json.Unmarshal(raw, &c) == nil && c.Res != nil
}

// RestorePairs decodes merged pair-case payloads in index order. Missing
// entries (nil payloads) become zero cases with Res == nil, matching the
// local Runner's partial-grid convention.
func (sp Spec) RestorePairs(results []json.RawMessage) ([]exp.PairCase, error) {
	if sp.Mode != ModePairs {
		return nil, fmt.Errorf("distsweep: RestorePairs on mode %q", sp.Mode)
	}
	out := make([]exp.PairCase, len(results))
	for i, raw := range results {
		if raw == nil {
			continue
		}
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("distsweep: case %d: %w", i, err)
		}
	}
	return out, nil
}

// RestoreTrios decodes merged trio-case payloads in index order.
func (sp Spec) RestoreTrios(results []json.RawMessage) ([]exp.TrioCase, error) {
	if sp.Mode != ModeTrios {
		return nil, fmt.Errorf("distsweep: RestoreTrios on mode %q", sp.Mode)
	}
	out := make([]exp.TrioCase, len(results))
	for i, raw := range results {
		if raw == nil {
			continue
		}
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("distsweep: case %d: %w", i, err)
		}
	}
	return out, nil
}
