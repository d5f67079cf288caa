// Package exp is the experiment harness: it re-runs the paper's
// evaluation (Section 4) on the simulator and reduces raw co-run results
// into the quantities each figure reports — QoSreach, normalized non-QoS
// throughput, QoS overshoot, miss histograms and energy efficiency.
//
// Every table, figure and ablation is one entry of Experiments (study.go):
// the sweeps it needs and a pure reduction of their cases into a Table
// that cmd/qossim prints. A Study controls the subset of pairs and trios
// (every k-th of the full 900/600-case studies), and Study.Collect
// obtains each distinct sweep once: from the study's row store (rows.go)
// when it holds the sweep, else by simulating it. The Runner in runner.go
// fans case grids out over a worker pool with bit-identical results to
// the serial sweeps the package tests keep as its reference.
package exp

import (
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

// Case is one co-run outcome of a sweep: the goal its QoS kernels
// carry and its result, nil for a case that failed or has not run. A
// pair and a trio are both a co-run; the scheme and the kernels, in spec
// order, are the result's.
type Case struct {
	Goal float64
	Res  *core.Result
}

// PairSpecs builds the two-kernel spec list for one pair case. It is
// the single definition of how a (pair, goal) grid coordinate becomes
// simulator input, shared by the serial sweeps and Grid, through which
// the Runner runs every pooled case — so every execution path is
// bit-identical by construction.
func PairSpecs(p workloads.Pair, goal float64) []core.KernelSpec {
	return []core.KernelSpec{
		{Workload: p.QoS, GoalFrac: goal},
		{Workload: p.NonQoS},
	}
}

// TrioSpecs builds the three-kernel spec list for one trio case: the
// goal applies to the first member, and with nQoS 2 to the second too.
// Like PairSpecs it is shared by every execution path (serial and
// pooled).
func TrioSpecs(t workloads.Trio, goal float64, nQoS int) []core.KernelSpec {
	specs := []core.KernelSpec{
		{Workload: t.A, GoalFrac: goal},
		{Workload: t.B},
		{Workload: t.C},
	}
	if nQoS == 2 {
		specs[1].GoalFrac = goal
	}
	return specs
}

// ---- reducers ----

// ReachByGoal returns, per goal, the QoSreach of its cases: the fraction
// whose QoS goals were all met. A goal with no case is absent (reads 0).
func ReachByGoal(cases []Case, goals []float64) map[float64]float64 {
	out := make(map[float64]float64, len(goals))
	for _, g := range goals {
		hits, n := 0, 0
		for _, c := range cases {
			if c.Goal == g {
				n++
				if c.Res.AllReached {
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
func successMeanByGoal(cases []Case, goals []float64, values func(*core.Result) []float64) map[float64]float64 {
	out := make(map[float64]float64, len(goals))
	for _, g := range goals {
		sum, n := 0.0, 0
		for _, c := range cases {
			if c.Goal != g || !c.Res.AllReached {
				continue
			}
			for _, v := range values(c.Res) {
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

// NonQoSThroughputByGoal averages the normalized throughput of the
// non-QoS kernels per goal over the cases that met their QoS goals.
func NonQoSThroughputByGoal(cases []Case, goals []float64) map[float64]float64 {
	return successMeanByGoal(cases, goals, nonQoSThroughputs)
}

// PairOvershootByGoal averages QoS-kernel throughput normalized to the
// goal (Figure 9), over successful cases.
func PairOvershootByGoal(cases []Case, goals []float64) map[float64]float64 {
	return successMeanByGoal(cases, goals, func(r *core.Result) []float64 { return []float64{kernelOf(r, true).GoalRatio} })
}

// MissBuckets is the Figure 5 histogram: how far failed cases missed the
// goal, bucketed as 0-1%, 1-5%, 5-10%, 10-20% and 20+%.
type MissBuckets struct {
	Counts        [5]int
	Total         int // all cases
	Failures      int
	Successes     int
	MeanOvershoot float64 // the average GoalRatio-1 over successes
}

// BucketLabels returns the figure's x-axis labels.
func BucketLabels() [5]string {
	return [5]string{"0-1%", "1-5%", "5-10%", "10-20%", "20+%"}
}

// Misses computes the Figure 5 histogram over pair cases.
func Misses(cases []Case) MissBuckets {
	var b MissBuckets
	var overshootSum float64
	for _, c := range cases {
		b.Total++
		q := kernelOf(c.Res, true)
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

// kernelOf returns r's first kernel whose role is qos (QoS or not): in a
// pair case, its QoS kernel or the co-runner, in either launch order.
func kernelOf(r *core.Result, qos bool) *core.KernelResult {
	for i := range r.Kernels {
		if r.Kernels[i].IsQoS == qos {
			return &r.Kernels[i]
		}
	}
	return nil
}

// nonQoSThroughputs lists the normalized throughput of r's non-QoS kernels.
func nonQoSThroughputs(r *core.Result) (vs []float64) {
	for _, k := range r.Kernels {
		if !k.IsQoS {
			vs = append(vs, k.NormThroughput)
		}
	}
	return vs
}

// ReachByQoSKernel computes per-benchmark QoSreach (Figure 7).
func ReachByQoSKernel(cases []Case) map[string]float64 {
	by := map[string][]Case{}
	for _, c := range cases {
		name := kernelOf(c.Res, true).Name
		by[name] = append(by[name], c)
	}
	perKernel := make(map[string]float64, len(by))
	for name, cs := range by {
		perKernel[name] = AvgReach(cs)
	}
	return perKernel
}

// AvgReach averages QoSreach over all cases.
func AvgReach(cases []Case) float64 {
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
func InstrPerWattByGoal(cases []Case, goals []float64) map[float64]float64 {
	return successMeanByGoal(cases, goals, func(r *core.Result) []float64 { return []float64{r.Power.InstrPerWatt} })
}
