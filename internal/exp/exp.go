// Package exp is the experiment harness: it re-runs the paper's
// evaluation (Section 4) on the simulator and reduces raw co-run results
// into the quantities each figure reports — QoSreach, normalized non-QoS
// throughput, QoS overshoot, miss histograms and energy efficiency.
//
// Every table, figure and ablation is one entry of Experiments (study.go):
// the sweeps it needs and a pure reduction of their cases into a Table
// that cmd/qossim prints. A Study controls the subset of pairs/trios/goals
// so reduced versions of the full 900/600-case studies run quickly, and
// Study.Collect runs each distinct sweep once. The Runner in runner.go
// fans case grids out over a worker pool with bit-identical results to
// the serial sweeps.
package exp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

// Goals returns the paper's QoS-goal sweep: 50%..95% in 5% steps.
func Goals() []float64 {
	out := make([]float64, 0, 10)
	for g := 0.50; g < 0.951; g += 0.05 {
		out = append(out, g)
	}
	return out
}

// TwoQoSGoals returns the Figure 6c sweep: (25%,25%)..(70%,70%).
func TwoQoSGoals() []float64 {
	out := make([]float64, 0, 10)
	for g := 0.25; g < 0.701; g += 0.05 {
		out = append(out, g)
	}
	return out
}

// PairCase is one (pair, goal, scheme) run outcome.
type PairCase struct {
	Pair   workloads.Pair
	Goal   float64
	Scheme core.Scheme
	Res    *core.Result
}

// QoSKernel returns the QoS kernel's result.
func (c PairCase) QoSKernel() core.KernelResult { return c.Res.Kernels[0] }

// NonQoSKernel returns the non-QoS kernel's result.
func (c PairCase) NonQoSKernel() core.KernelResult { return c.Res.Kernels[1] }

// PairSpecs builds the two-kernel spec list for one pair case. It is
// the single definition of how a (pair, goal) grid coordinate becomes
// simulator input, shared by the serial sweeps and Grid, through which
// the Runner runs every pooled case, local or distributed — so every
// execution path is bit-identical by construction.
func PairSpecs(p workloads.Pair, goal float64) []core.KernelSpec {
	return []core.KernelSpec{
		{Workload: p.QoS, GoalFrac: goal},
		{Workload: p.NonQoS},
	}
}

// TrioSpecs builds the three-kernel spec list for one trio case along
// with its per-QoS-kernel goal list. Like PairSpecs it is shared by
// every execution path (serial, pooled, distributed).
func TrioSpecs(t workloads.Trio, goal float64, nQoS int) ([]core.KernelSpec, []float64) {
	specs := []core.KernelSpec{
		{Workload: t.A, GoalFrac: goal},
		{Workload: t.B},
		{Workload: t.C},
	}
	qg := []float64{goal}
	if nQoS == 2 {
		specs[1].GoalFrac = goal
		qg = []float64{goal, goal}
	}
	return specs, qg
}

// serialProgress emits Progress events for the in-order serial sweeps so
// they feed the same stream the parallel Runner does.
func serialProgress(stage string, total int, progress ProgressFunc) func(done int) {
	if progress == nil {
		return func(int) {}
	}
	start := time.Now()
	return func(done int) {
		p := Progress{Stage: stage, Done: done, Total: total, Elapsed: time.Since(start)}
		p.CasesPerSec, p.ETA = sweepRate(done, total, p.Elapsed)
		progress(p)
	}
}

// PairSweep runs every pair at every goal under the scheme, serially on
// one session. Progress (if non-nil) is invoked after each case for
// long-run visibility. Runner.Sweep over a pair Grid is the parallel
// equivalent and produces identical results.
func PairSweep(ctx context.Context, s *core.Session, pairs []workloads.Pair, goals []float64, scheme core.Scheme, progress ProgressFunc) ([]PairCase, error) {
	out := make([]PairCase, 0, len(pairs)*len(goals))
	tick := serialProgress(scheme.String(), len(pairs)*len(goals), progress)
	for _, p := range pairs {
		for _, g := range goals {
			res, err := s.Run(ctx, PairSpecs(p, g), scheme)
			if err != nil {
				return nil, fmt.Errorf("pair %s+%s @%.2f: %w", p.QoS, p.NonQoS, g, err)
			}
			out = append(out, PairCase{Pair: p, Goal: g, Scheme: scheme, Res: res})
			tick(len(out))
		}
	}
	return out, nil
}

// TrioCase is one trio run outcome. QoSGoals lists the goal fraction per
// QoS kernel (the first len(QoSGoals) members carry goals).
type TrioCase struct {
	Trio     workloads.Trio
	QoSGoals []float64
	Scheme   core.Scheme
	Res      *core.Result
}

// TrioSweep runs every trio at every goal with nQoS QoS kernels (1 or 2),
// serially on one session. For nQoS==1 the goal applies to the trio's
// first member; for nQoS==2 the same goal applies to the first two (the
// paper's 2x25%..2x70%). Runner.Sweep over a trio Grid is the parallel
// equivalent.
func TrioSweep(ctx context.Context, s *core.Session, trios []workloads.Trio, goals []float64, nQoS int, scheme core.Scheme, progress ProgressFunc) ([]TrioCase, error) {
	if nQoS < 1 || nQoS > 2 {
		return nil, fmt.Errorf("exp: nQoS must be 1 or 2, got %d", nQoS)
	}
	out := make([]TrioCase, 0, len(trios)*len(goals))
	tick := serialProgress(scheme.String(), len(trios)*len(goals), progress)
	for _, t := range trios {
		for _, g := range goals {
			specs, qg := TrioSpecs(t, g, nQoS)
			res, err := s.Run(ctx, specs, scheme)
			if err != nil {
				return nil, fmt.Errorf("trio %s+%s+%s @%.2f: %w", t.A, t.B, t.C, g, err)
			}
			out = append(out, TrioCase{Trio: t, QoSGoals: qg, Scheme: scheme, Res: res})
			tick(len(out))
		}
	}
	return out, nil
}

// ---- reducers ----

// gridCase is a pair or trio case as the per-goal reducers see it; a
// trio case's goal is its first QoS kernel's.
type gridCase interface {
	PairCase | TrioCase
	goal() float64
	result() *core.Result
}

func (c PairCase) goal() float64        { return c.Goal }
func (c PairCase) result() *core.Result { return c.Res }
func (c TrioCase) goal() float64        { return c.QoSGoals[0] }
func (c TrioCase) result() *core.Result { return c.Res }

// ReachByGoal returns, per goal, the QoSreach of its cases: the fraction
// whose QoS goals were all met. A goal with no case is absent (reads 0).
func ReachByGoal[C gridCase](cases []C, goals []float64) map[float64]float64 {
	out := make(map[float64]float64, len(goals))
	for _, g := range goals {
		hits, n := 0, 0
		for _, c := range cases {
			if c.goal() == g {
				n++
				if c.result().AllReached {
					hits++
				}
			}
		}
		if n > 0 {
			out[g] = float64(hits) / float64(n)
		}
	}
	return out
}

// successMeanByGoal averages, per goal, the values each successful case
// contributes — the paper's Figure 8 methodology ("we only include the
// results from the cases that meet the QoS goals"). A goal with no value
// is absent.
func successMeanByGoal[C gridCase](cases []C, goals []float64, values func(*core.Result) []float64) map[float64]float64 {
	out := make(map[float64]float64, len(goals))
	for _, g := range goals {
		sum, n := 0.0, 0
		for _, c := range cases {
			if c.goal() != g || !c.result().AllReached {
				continue
			}
			for _, v := range values(c.result()) {
				sum += v
				n++
			}
		}
		if n > 0 {
			out[g] = sum / float64(n)
		}
	}
	return out
}

// PairNonQoSThroughputByGoal averages the non-QoS kernel's normalized
// throughput per goal over the cases that met the QoS goal.
func PairNonQoSThroughputByGoal(cases []PairCase, goals []float64) map[float64]float64 {
	return successMeanByGoal(cases, goals, func(r *core.Result) []float64 { return []float64{r.Kernels[1].NormThroughput} })
}

// PairOvershootByGoal averages QoS-kernel throughput normalized to the
// goal (Figure 9), over successful cases.
func PairOvershootByGoal(cases []PairCase, goals []float64) map[float64]float64 {
	return successMeanByGoal(cases, goals, func(r *core.Result) []float64 { return []float64{r.Kernels[0].GoalRatio} })
}

// MissBuckets is the Figure 5 histogram: how far failed cases missed the
// goal, bucketed as 0-1%, 1-5%, 5-10%, 10-20% and 20+%.
type MissBuckets struct {
	Counts    [5]int
	Total     int // all cases
	Failures  int
	Successes int
	// MeanOvershoot is the average GoalRatio-1 over successes (the
	// paper reports +1.3% for Naive+History).
	MeanOvershoot float64
}

// BucketLabels returns the figure's x-axis labels.
func BucketLabels() [5]string {
	return [5]string{"0-1%", "1-5%", "5-10%", "10-20%", "20+%"}
}

// Misses computes the Figure 5 histogram over pair cases.
func Misses(cases []PairCase) MissBuckets {
	var b MissBuckets
	var overshootSum float64
	for _, c := range cases {
		b.Total++
		q := c.QoSKernel()
		if q.Reached {
			b.Successes++
			overshootSum += q.GoalRatio - 1
			continue
		}
		b.Failures++
		miss := 1 - q.GoalRatio
		switch {
		case miss < 0.01:
			b.Counts[0]++
		case miss < 0.05:
			b.Counts[1]++
		case miss < 0.10:
			b.Counts[2]++
		case miss < 0.20:
			b.Counts[3]++
		default:
			b.Counts[4]++
		}
	}
	if b.Successes > 0 {
		b.MeanOvershoot = overshootSum / float64(b.Successes)
	}
	return b
}

// TrioNonQoSThroughputByGoal averages normalized throughput of the trio's
// non-QoS kernels over successful cases.
func TrioNonQoSThroughputByGoal(cases []TrioCase, goals []float64) map[float64]float64 {
	return successMeanByGoal(cases, goals, func(r *core.Result) []float64 {
		var vs []float64
		for _, k := range r.Kernels {
			if !k.IsQoS {
				vs = append(vs, k.NormThroughput)
			}
		}
		return vs
	})
}

// ReachByQoSKernel computes per-benchmark QoSreach (Figure 7) plus the
// C+C / C+M / M+M class summaries.
func ReachByQoSKernel(cases []PairCase) (perKernel map[string]float64, perClass map[string]float64, err error) {
	hits := make(map[string]int)
	tot := make(map[string]int)
	clsHits := make(map[string]int)
	clsTot := make(map[string]int)
	for _, c := range cases {
		tot[c.Pair.QoS]++
		cls, cerr := workloads.PairClass(c.Pair.QoS, c.Pair.NonQoS)
		if cerr != nil {
			return nil, nil, cerr
		}
		clsTot[cls]++
		if c.Res.AllReached {
			hits[c.Pair.QoS]++
			clsHits[cls]++
		}
	}
	perKernel = make(map[string]float64, len(tot))
	for k, t := range tot {
		perKernel[k] = float64(hits[k]) / float64(t)
	}
	perClass = make(map[string]float64, len(clsTot))
	for k, t := range clsTot {
		perClass[k] = float64(clsHits[k]) / float64(t)
	}
	return perKernel, perClass, nil
}

// AvgReach averages QoSreach over all cases.
func AvgReach(cases []PairCase) float64 {
	if len(cases) == 0 {
		return 0
	}
	hits := 0
	for _, c := range cases {
		if c.Res.AllReached {
			hits++
		}
	}
	return float64(hits) / float64(len(cases))
}

// InstrPerWattByGoal averages instructions/watt per goal over successful
// cases (Figure 14 compares schemes on this).
func InstrPerWattByGoal(cases []PairCase, goals []float64) map[float64]float64 {
	return successMeanByGoal(cases, goals, func(r *core.Result) []float64 { return []float64{r.Power.InstrPerWatt} })
}
