package exp

import (
	"context"
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workloads"
)

func TestGoalsSweep(t *testing.T) {
	g := Goals()
	if len(g) != 10 {
		t.Fatalf("%d goals, want 10 (50%%..95%% step 5%%)", len(g))
	}
	if math.Abs(g[0]-0.50) > 1e-9 || math.Abs(g[9]-0.95) > 1e-9 {
		t.Fatalf("goal sweep endpoints %v..%v", g[0], g[9])
	}
	g2 := TwoQoSGoals()
	if len(g2) != 10 || math.Abs(g2[0]-0.25) > 1e-9 || math.Abs(g2[9]-0.70) > 1e-9 {
		t.Fatalf("two-QoS sweep wrong: %v", g2)
	}
}

func fakeCase(goal float64, ratio, nq float64) PairCase {
	reached := ratio >= 1
	return PairCase{
		Pair: workloads.Pair{QoS: "sgemm", NonQoS: "lbm"},
		Goal: goal,
		Res: &core.Result{
			AllReached: reached,
			Kernels: []core.KernelResult{
				{Name: "sgemm", IsQoS: true, GoalIPC: 100, IPC: ratio * 100,
					GoalRatio: ratio, Reached: reached},
				{Name: "lbm", NormThroughput: nq},
			},
		},
	}
}

func TestPairReducers(t *testing.T) {
	cases := []PairCase{
		fakeCase(0.5, 1.02, 0.6),
		fakeCase(0.5, 0.97, 0.4),
		fakeCase(0.9, 1.01, 0.2),
		fakeCase(0.9, 1.03, 0.3),
	}
	goals := []float64{0.5, 0.9}
	reach := ReachByGoal(cases, goals)
	if reach[0.5] != 0.5 || reach[0.9] != 1.0 {
		t.Fatalf("reach = %v", reach)
	}
	tput := PairNonQoSThroughputByGoal(cases, goals)
	if tput[0.5] != 0.6 { // only the successful case counts
		t.Fatalf("tput[0.5] = %v", tput[0.5])
	}
	if math.Abs(tput[0.9]-0.25) > 1e-9 {
		t.Fatalf("tput[0.9] = %v", tput[0.9])
	}
	over := PairOvershootByGoal(cases, goals)
	if math.Abs(over[0.9]-1.02) > 1e-9 {
		t.Fatalf("overshoot[0.9] = %v", over[0.9])
	}
	if got := AvgReach(cases); got != 0.75 {
		t.Fatalf("avg reach = %v", got)
	}
}

func TestMissBuckets(t *testing.T) {
	cases := []PairCase{
		fakeCase(0.5, 1.013, 0),  // success, overshoot 1.3%
		fakeCase(0.5, 0.995, 0),  // 0-1%
		fakeCase(0.5, 0.96, 0),   // 1-5%
		fakeCase(0.5, 0.92, 0),   // 5-10%
		fakeCase(0.5, 0.85, 0),   // 10-20%
		fakeCase(0.5, 0.50, 0),   // 20+%
		fakeCase(0.5, 0.9899, 0), // boundary: 1.01% → bucket 1-5%
	}
	b := Misses(cases)
	if b.Total != 7 || b.Successes != 1 || b.Failures != 6 {
		t.Fatalf("counts: %+v", b)
	}
	want := [5]int{1, 2, 1, 1, 1}
	if b.Counts != want {
		t.Fatalf("buckets = %v, want %v", b.Counts, want)
	}
	if math.Abs(b.MeanOvershoot-0.013) > 1e-9 {
		t.Fatalf("mean overshoot = %v", b.MeanOvershoot)
	}
}

func TestReachByQoSKernel(t *testing.T) {
	cases := []PairCase{
		fakeCase(0.5, 1.02, 0),
		fakeCase(0.7, 0.9, 0),
	}
	perK, perC, err := ReachByQoSKernel(cases)
	if err != nil {
		t.Fatal(err)
	}
	if perK["sgemm"] != 0.5 {
		t.Fatalf("per-kernel reach = %v", perK)
	}
	if perC["C+M"] != 0.5 {
		t.Fatalf("per-class reach = %v", perC)
	}
}

func TestStudyReduction(t *testing.T) {
	r, err := NewRunner(1, WithSessionOptions(core.WithWindow(40_000)))
	if err != nil {
		t.Fatal(err)
	}
	full := FullStudy(r)
	if len(full.Pairs) != 90 || len(full.Trios) != 60 {
		t.Fatalf("full study %d pairs / %d trios", len(full.Pairs), len(full.Trios))
	}
	red := ReducedStudy(r, 10)
	if len(red.Pairs) != 9 {
		t.Fatalf("reduced pairs = %d, want 9", len(red.Pairs))
	}
	if len(red.Goals) != 5 {
		t.Fatalf("reduced goals = %d, want 5", len(red.Goals))
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"note"},
	}
	out := tbl.String()
	if out == "" || len(out) < 20 {
		t.Fatal("table did not render")
	}
	if got := Table1(config.Base()).String(); got == "" {
		t.Fatal("Table 1 did not render")
	}
}

// TestPairSweepSmoke runs a tiny real sweep end to end.
func TestPairSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := config.Base()
	cfg.NumSMs = 4
	s, err := core.NewSession(core.WithGPU(cfg), core.WithWindow(30_000))
	if err != nil {
		t.Fatal(err)
	}
	pairs := []workloads.Pair{{QoS: "sgemm", NonQoS: "lbm"}}
	goals := []float64{0.4}
	cases, err := PairSweep(context.Background(), s, pairs, goals, core.SchemeRollover, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 1 {
		t.Fatalf("%d cases", len(cases))
	}
	if cases[0].QoSKernel().Name != "sgemm" || cases[0].NonQoSKernel().Name != "lbm" {
		t.Fatal("case kernels mislabeled")
	}
}

// TestTrioSweepSmoke runs one trio end to end with 2 QoS kernels.
func TestTrioSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	cfg := config.Base()
	cfg.NumSMs = 4
	s, _ := core.NewSession(core.WithGPU(cfg), core.WithWindow(30_000))
	trios := []workloads.Trio{{A: "sgemm", B: "mri-q", C: "lbm"}}
	cases, err := TrioSweep(context.Background(), s, trios, []float64{0.25}, 2, core.SchemeRollover, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases[0].QoSGoals) != 2 {
		t.Fatal("2-QoS trio carries wrong goal count")
	}
	if _, err := TrioSweep(context.Background(), s, trios, []float64{0.25}, 3, core.SchemeRollover, nil); err == nil {
		t.Fatal("accepted nQoS=3")
	}
}
