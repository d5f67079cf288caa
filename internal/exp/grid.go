package exp

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/workloads"
)

// Grid is one sweep's case grid: the study's pairs, or its trios with NQoS
// QoS kernels each, at every goal. Case i is pair (or trio) i/len(Goals)
// at goal i%len(Goals): pair/trio-major, goal-minor, the order of the
// serial PairSweep/TrioSweep. It is the one mapping from a case index to
// the case.
type Grid struct {
	Pairs []workloads.Pair
	Trios []workloads.Trio
	Goals []float64
	// NQoS is 0 for a pair grid, or the QoS kernels per trio (1 or 2).
	NQoS int
}

// Check rejects a grid no sweep can run: an unknown QoS kernel count or
// no case at all.
func (g Grid) Check() error {
	if g.NQoS < 0 || g.NQoS > 2 {
		return fmt.Errorf("exp: nQoS must be 0 (pairs), 1 or 2, got %d", g.NQoS)
	}
	if g.Len() == 0 {
		return fmt.Errorf("exp: empty case grid")
	}
	return nil
}

// kind is the grid's journal stage-key prefix.
func (g Grid) kind() string {
	if g.NQoS == 0 {
		return "pairs"
	}
	return "trios"
}

// Len returns the number of cases.
func (g Grid) Len() int {
	if g.NQoS == 0 {
		return len(g.Pairs) * len(g.Goals)
	}
	return len(g.Trios) * len(g.Goals)
}

// goal returns case i's goal.
func (g Grid) goal(i int) float64 { return g.Goals[i%len(g.Goals)] }

// Describe renders case i's grid coordinates for logs and failure
// reports, e.g. "pair[3] sgemm+lbm @0.50".
func (g Grid) Describe(i int) string {
	n := i / len(g.Goals)
	if g.NQoS == 0 {
		p := g.Pairs[n]
		return fmt.Sprintf("pair[%d] %s+%s @%.2f", n, p.QoS, p.NonQoS, g.goal(i))
	}
	t := g.Trios[n]
	return fmt.Sprintf("trio[%d] %s+%s+%s @%.2f", n, t.A, t.B, t.C, g.goal(i))
}

// traceName names case i's trace file; it is unique within a sweep.
func (g Grid) traceName(i int, scheme core.Scheme) string {
	if g.NQoS == 0 {
		p := g.Pairs[i/len(g.Goals)]
		return fmt.Sprintf("pair%03d_%s+%s_g%.2f_%s", i, p.QoS, p.NonQoS, g.goal(i), scheme.Name())
	}
	t := g.Trios[i/len(g.Goals)]
	return fmt.Sprintf("trio%03d_%s+%s+%s_g%.2f_q%d_%s", i, t.A, t.B, t.C, g.goal(i), g.NQoS, scheme.Name())
}

// specs returns case i's simulator input.
func (g Grid) specs(i int) []core.KernelSpec {
	if g.NQoS == 0 {
		return PairSpecs(g.Pairs[i/len(g.Goals)], g.goal(i))
	}
	specs, _ := TrioSpecs(g.Trios[i/len(g.Goals)], g.goal(i), g.NQoS)
	return specs
}

// Case returns case i's outcome under scheme — a PairCase or a TrioCase.
// Its JSON encoding is the case's journal payload.
func (g Grid) Case(i int, scheme core.Scheme, res *core.Result) any {
	if g.NQoS == 0 {
		return PairCase{Pair: g.Pairs[i/len(g.Goals)], Goal: g.goal(i), Scheme: scheme, Res: res}
	}
	t := g.Trios[i/len(g.Goals)]
	_, qg := TrioSpecs(t, g.goal(i), g.NQoS)
	return TrioCase{Trio: t, QoSGoals: qg, Scheme: scheme, Res: res}
}

// pairGrid and trioGrid are the hashed identities of a grid; their JSON
// shape fixes every journal stage key ever written, so it must not change.
type (
	pairGrid struct {
		Pairs []workloads.Pair
		Goals []float64
	}
	trioGrid struct {
		Trios []workloads.Trio
		Goals []float64
		NQoS  int
	}
)

// StageKey derives the journal key of a sweep of g under scheme on a
// session with the given configuration and seed: a readable prefix plus
// hashes of the session and of the grid. Two sweeps share journaled cases
// only when both hashes agree, so derived runners and differently
// subsampled studies never splice each other's results.
func (g Grid) StageKey(cfg core.Config, seed uint64, scheme core.Scheme) (string, error) {
	sess, err := journal.Hash(struct {
		Config core.Config
		Seed   uint64
	}{cfg, seed})
	if err != nil {
		return "", err
	}
	var id any = pairGrid{g.Pairs, g.Goals}
	if g.NQoS > 0 {
		id = trioGrid{g.Trios, g.Goals, g.NQoS}
	}
	gh, err := journal.Hash(id)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s/%s/%s/%s", g.kind(), scheme.Name(), sess[:12], gh[:12]), nil
}

// Cases are a grid's outcomes by case index: Pairs for a pair grid, Trios
// for a trio grid. A case that failed or has not run has a nil Res.
type Cases struct {
	Pairs []PairCase
	Trios []TrioCase
}

// Cases returns g's outcome slots, all empty.
func (g Grid) Cases() Cases {
	if g.NQoS == 0 {
		return Cases{Pairs: make([]PairCase, g.Len())}
	}
	return Cases{Trios: make([]TrioCase, g.Len())}
}

// Restore decodes a journal payload into case i. It reports false, and
// leaves the case as it was, when raw is not a completed case.
func (c Cases) Restore(i int, raw json.RawMessage) bool {
	if c.Pairs != nil {
		return restore(&c.Pairs[i], raw)
	}
	return restore(&c.Trios[i], raw)
}

func restore[C gridCase](dst *C, raw json.RawMessage) bool {
	var c C
	if json.Unmarshal(raw, &c) != nil || c.result() == nil {
		return false
	}
	*dst = c
	return true
}

// set stores a case value returned by Grid.Case at index i.
func (c Cases) set(i int, v any) {
	switch v := v.(type) {
	case PairCase:
		c.Pairs[i] = v
	case TrioCase:
		c.Trios[i] = v
	}
}
