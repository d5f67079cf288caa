package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/workloads"
)

// Grid is one sweep's case grid: the study's pairs, or its trios with NQoS
// QoS kernels each, at every goal. Case i is pair (or trio) i/len(Goals)
// at goal i%len(Goals): pair/trio-major, goal-minor, the order of the
// serial sweep the package tests hold it to. It is the one mapping from a
// case index to the case; a sweep's outcomes are a []Case in that order.
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

// kind is the grid's stage-key prefix.
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
	return TrioSpecs(g.Trios[i/len(g.Goals)], g.goal(i), g.NQoS)
}

// Case returns case i's outcome given its result.
func (g Grid) Case(i int, res *core.Result) Case { return Case{Goal: g.goal(i), Res: res} }

// pairGrid and trioGrid are the hashed identities of a grid; their JSON
// shape fixes every stage key, and so every row file name, ever written:
// it must not change.
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

// StageKey derives the key of a sweep of g under scheme on a session
// with the given configuration and seed: a readable prefix plus hashes of
// the session and of the grid. It names the sweep's row file (rows.go).
// Two sweeps share a key only when both hashes agree, so derived runners
// and differently subsampled studies never read each other's rows.
func (g Grid) StageKey(cfg core.Config, seed uint64, scheme core.Scheme) (string, error) {
	sess, err := sessionHash(cfg, seed)
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

// sessionHash is the session half of a stage key: two sessions with the
// same hash run every case alike.
func sessionHash(cfg core.Config, seed uint64) (string, error) {
	return journal.Hash(struct {
		Config core.Config
		Seed   uint64
	}{cfg, seed})
}
