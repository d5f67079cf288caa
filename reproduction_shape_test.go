package repro_test

import (
	"context"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
)

// committedRows collects the sweeps of the experiments named by ids from
// the committed rows in results/full, each experiment at the stride the
// registry declares, under a canceled context so that any sweep missing
// there fails instead of simulating. It returns the full-grid study, the
// experiments' tables and their sweeps' cases by stage label (the sweep's
// name, and its stride when above 1).
func committedRows(t *testing.T, ids ...string) (exp.Study, []*exp.Table, map[string]exp.SweepRow) {
	t.Helper()
	r, err := exp.NewRunner(1, exp.WithSessionOptions(core.WithGPU(config.Base()), core.WithWindow(exp.CommittedWindow)))
	if err != nil {
		t.Fatal(err)
	}
	st := exp.NewStudy(r, 1)
	st.Rows = filepath.Join("results", "full")
	var exps []exp.Experiment
	for _, e := range exp.Experiments() {
		if slices.Contains(ids, e.ID) {
			exps = append(exps, e)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tables, rows, err := st.Tables(ctx, exps)
	if err != nil {
		t.Fatalf("%v: not committed in results/full", err)
	}
	by := map[string]exp.SweepRow{}
	for _, row := range rows {
		if row.Report != nil {
			t.Fatalf("%s was simulated", row.Stage)
		}
		by[row.Stage] = row
	}
	return st, tables, by
}

// TestCommittedRowsKeepEveryStride asks for a full-grid experiment and a
// stride-6 one that both declare the Rollover pair sweep: the two stages
// keep their own rows under their own labels, 900 and 150 cases, and a
// stride-6 sweep that reuses one names that stage.
func TestCommittedRowsKeepEveryStride(t *testing.T) {
	_, _, rows := committedRows(t, "fig6a", "ablate-static", "ablate-preempt")
	for stage, want := range map[string]int{"Rollover": 900, "Rollover (stride 6)": 150} {
		if got := len(rows[stage].Pairs); got != want {
			t.Errorf("stage %q has %d cases, want %d", stage, got, want)
		}
	}
	if r := rows["Rollover (stride 6)"]; r.Reused != "Rollover (stride 6)" {
		t.Errorf("the second stride-6 Rollover sweep reused %q", r.Reused)
	}
}

// reach returns a sweep's QoSreach per goal, in goal order, and over all
// its cases (every goal has the same number of cases).
func reach(row exp.SweepRow, goals []float64) (byGoal []float64, avg float64) {
	var m map[float64]float64
	if row.Pairs != nil {
		m = exp.ReachByGoal(row.Pairs, goals)
	} else {
		m = exp.ReachByGoal(row.Trios, goals)
	}
	for _, g := range goals {
		byGoal = append(byGoal, m[g])
		avg += m[g] / float64(len(goals))
	}
	return byGoal, avg
}

// TestReproductionShape is the reproduction's shape gate: the paper's
// orderings, asserted on the committed full-grid rows (900 pair cases
// per scheme, 600 per trio study, 300 K-cycle window) without simulating
// anything. Where a claim of the paper does not reproduce, the gate holds
// the relation that was measured, and says why beside it.
// EXPERIMENTS.md prints the tables these come from.
func TestReproductionShape(t *testing.T) {
	st, _, rows := committedRows(t, "fig5", "fig6a", "fig6b", "fig6c", "fig9", "fig11", "ablate-history")
	goals, goals2 := st.Goals, st.Goals2

	// Figure 5: Naive+History reaches far fewer goals than Rollover, and
	// most of its misses are within 5% of the goal. The paper's
	// Naive+History misses >700 of 900 cases; ours misses 358, since the
	// quota margin (DESIGN.md §6.3) helps it too, so "far fewer" is
	// gated as measured: at least 15 points of reach below Rollover
	// (60.2% against 80.8%).
	_, nh := reach(rows["Naive+History"], goals)
	_, ro := reach(rows["Rollover"], goals)
	if !(nh < ro-0.15) {
		t.Errorf("Fig 5: Naive+History reach %.3f, Rollover %.3f; want 15 points below", nh, ro)
	}
	if b := exp.Misses(rows["Naive+History"].Pairs); 2*(b.Counts[0]+b.Counts[1]) <= b.Failures {
		t.Errorf("Fig 5: %d of %d Naive+History misses within 5%%; want most", b.Counts[0]+b.Counts[1], b.Failures)
	}

	// Aggregate reach does not increase with the goal, per scheme. The
	// paper's per-goal curves fall monotonically; ours do not at every
	// step (Rollover's pair reach dips to 80.0% at 60% and is back at
	// 88.9% at 70%, Spart's rises from 87.8% at 65% to 91.1% at 70%), so
	// the gate holds what was measured: reach over the upper half of the
	// goals is below reach over the lower half. Item 17(a) checks the
	// monotonicity per case.
	for _, stage := range []string{"Spart", "Naive", "Naive+History", "Elastic", "Rollover", "Rollover-Time",
		"history-off", "trios1/Spart", "trios1/Rollover", "trios2/Spart", "trios2/Rollover"} {
		row, ok := rows[stage]
		if !ok {
			t.Fatalf("no committed sweep %s", stage)
		}
		g := goals
		if strings.HasPrefix(stage, "trios2/") {
			g = goals2
		}
		byGoal, _ := reach(row, g)
		half := len(byGoal) / 2
		var lower, upper float64
		for i, r := range byGoal {
			if i < half {
				lower += r
			} else {
				upper += r
			}
		}
		if !(upper < lower) {
			t.Errorf("%s: reach over the upper goals %.3f, over the lower %.3f; want it lower", stage, upper/float64(len(byGoal)-half), lower/float64(half))
		}
	}

	// Figure 6b: Rollover reaches more one-QoS trio goals than Spart.
	_, sp1 := reach(rows["trios1/Spart"], goals)
	_, ro1 := reach(rows["trios1/Rollover"], goals)
	if !(ro1 > sp1) {
		t.Errorf("Fig 6b: Rollover %.3f, Spart %.3f; want Rollover ahead", ro1, sp1)
	}

	// Figure 6c: at the top dual goal Spart reaches nothing or less than
	// Rollover.
	sp2, _ := reach(rows["trios2/Spart"], goals2)
	ro2, _ := reach(rows["trios2/Rollover"], goals2)
	if top := len(goals2) - 1; sp2[top] != 0 && !(sp2[top] < ro2[top]) {
		t.Errorf("Fig 6c: at 2x%.2f Spart %.3f, Rollover %.3f", goals2[top], sp2[top], ro2[top])
	}

	// Figure 9: Rollover overshoots its goals less than Spart, on average
	// over the goals either reaches.
	over := func(stage string) float64 {
		m := exp.PairOvershootByGoal(rows[stage].Pairs, goals)
		var sum float64
		var n int
		for _, g := range goals {
			if m[g] > 0 {
				sum, n = sum+m[g], n+1
			}
		}
		return sum / float64(n)
	}
	if spO, roO := over("Spart"), over("Rollover"); !(roO < spO) {
		t.Errorf("Fig 9: overshoot Rollover %.4f, Spart %.4f; want Rollover lower", roO, spO)
	}

	// Figures 10/11: time multiplexing costs the non-QoS kernel at least
	// 1.3x its throughput under Rollover (paper: 1.47x), at similar reach:
	// within 10 points (measured: 1.67x, 6.1 points; paper: ~3%).
	_, rt := reach(rows["Rollover-Time"], goals)
	var tputRo, tputRT float64
	roT := exp.PairNonQoSThroughputByGoal(rows["Rollover"].Pairs, goals)
	rtT := exp.PairNonQoSThroughputByGoal(rows["Rollover-Time"].Pairs, goals)
	for _, g := range goals {
		tputRo, tputRT = tputRo+roT[g], tputRT+rtT[g]
	}
	if !(tputRo >= 1.3*tputRT) || math.Abs(rt-ro) > 0.10 {
		t.Errorf("Figs 10/11: non-QoS throughput Rollover %.3f vs Rollover-Time %.3f, reach %.3f vs %.3f; want >= 1.3x at reach within 10 points",
			tputRo, tputRT, ro, rt)
	}

	// Section 4.8b: history adjustment (α) on beats it off. The paper's
	// gap (+86.4% more cases) does not reproduce: ours is +3.4%, and the
	// two tie at 55%, 60% and 95%, since α-off Rollover keeps the quota
	// margin and rollover. The gate holds what was measured: on is at or
	// above off at every goal, and above it overall.
	on, onAvg := reach(rows["Rollover"], goals)
	off, offAvg := reach(rows["history-off"], goals)
	for i, g := range goals {
		if !(on[i] >= off[i]) {
			t.Errorf("α ablation at goal %.2f: on %.3f, off %.3f; want on at or above", g, on[i], off[i])
		}
	}
	if !(onAvg > offAvg) {
		t.Errorf("α ablation: reach on %.3f, off %.3f; want on ahead", onAvg, offAvg)
	}
}
