package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/stream"
)

// digest fingerprints a plan.
func (p simPlan) digest() string {
	type flat struct {
		Label  string
		Scheme string
		Goals  []float64
	}
	var fs []flat
	for _, c := range p.Cases {
		f := flat{Label: c.Label, Scheme: c.Scheme.Name()}
		for _, s := range c.Specs {
			f.Goals = append(f.Goals, s.GoalFrac)
		}
		fs = append(fs, f)
	}
	b, _ := json.Marshal(struct {
		Window int64
		Cases  []flat
	}{p.Window, fs})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Same seed, same inputs: the trace hash and the co-run draw.
func TestSeedDeterminesInputs(t *testing.T) {
	hash := func(tr *stream.Trace, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		h, err := tr.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	traces := map[string]func(seed uint64) string{
		"poisson": func(s uint64) string { return hash(warmTrace(s)) },
		"cold":    func(s uint64) string { return hash(coldTrace(s)) },
		"bursty":  func(s uint64) string { return hash(burstyTrace(s)) },
		"dense":   func(s uint64) string { return densePlan(s).digest() },
		"sparse":  func(s uint64) string { return sparsePlan(s).digest() },
	}
	for name, f := range traces {
		if f(7) != f(7) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if f(7) == f(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", name)
		}
	}
}

func TestTracesHaveFixedLength(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		tr, err := warmTrace(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Events) != warmArrivals {
			t.Fatalf("seed %d: %d arrivals, want %d (journal length must not depend on the seed)", seed, len(tr.Events), warmArrivals)
		}
		for i, ev := range tr.Events {
			if ev.Seq != i {
				t.Fatalf("seed %d: event %d has seq %d", seed, i, ev.Seq)
			}
		}
	}
}

// Every cold arrival carries its own goal, so no two hypothetical mixes
// share a signature.
func TestColdGoalsAreDistinct(t *testing.T) {
	tr, err := coldTrace(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]bool)
	for _, ev := range tr.Events {
		if ev.Goal.Frac < 0.3 || ev.Goal.Frac > 0.9 {
			t.Errorf("arrival %d: goal %v outside [0.3, 0.9]", ev.Seq, ev.Goal.Frac)
		}
		if seen[ev.Goal.Frac] {
			t.Errorf("arrival %d repeats goal %v", ev.Seq, ev.Goal.Frac)
		}
		seen[ev.Goal.Frac] = true
	}
}

// The dense draw is stratified: whatever the seed, every benchmark is
// the QoS kernel of two pairs and the non-QoS kernel of two, and the
// pair classes occur in fixed numbers.
func TestDensePlanIsBalanced(t *testing.T) {
	compute, _ := byClass()
	isCompute := make(map[string]bool)
	for _, n := range compute {
		isCompute[n] = true
	}
	for seed := uint64(1); seed <= 10; seed++ {
		plan := densePlan(seed)
		if len(plan.Cases) != 22 {
			t.Fatalf("seed %d: %d co-runs, want 22", seed, len(plan.Cases))
		}
		asQoS, asOther := make(map[string]int), make(map[string]int)
		classes := make(map[[2]bool]int)
		goals := make(map[float64]int)
		for _, c := range plan.Cases[:20] {
			q, o := c.Specs[0], c.Specs[1]
			asQoS[q.Workload]++
			asOther[o.Workload]++
			classes[[2]bool{isCompute[q.Workload], isCompute[o.Workload]}]++
			goals[q.GoalFrac]++
			if o.GoalFrac != 0 {
				t.Errorf("seed %d %s: non-QoS kernel has a goal", seed, c.Label)
			}
		}
		for name, n := range asQoS {
			if n != 2 || asOther[name] != 2 {
				t.Errorf("seed %d: %s is QoS in %d pairs and non-QoS in %d, want 2 and 2", seed, name, n, asOther[name])
			}
		}
		if classes[[2]bool{true, true}] != 4 || classes[[2]bool{false, false}] != 4 {
			t.Errorf("seed %d: %d C+C and %d M+M pairs, want 4 and 4", seed, classes[[2]bool{true, true}], classes[[2]bool{false, false}])
		}
		if len(goals) != 10 {
			t.Errorf("seed %d: %d distinct goals, want the paper's ten", seed, len(goals))
		}
		if len(plan.kernels()) != 10 {
			t.Errorf("seed %d: %d distinct kernels, want 10", seed, len(plan.kernels()))
		}
	}
}
